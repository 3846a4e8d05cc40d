import collections
import hashlib
import json
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import houghton
from houghton import (
    HoughtonElement,
    InvalidElementError,
    Word,
    WordError,
    apply,
    compose,
    conjugate_element,
    deserialize,
    ends_partition,
    equals,
    evaluate,
    generator,
    generator_ids,
    identity,
    inverse,
    serialize,
)
from houghton.conjugacy import construct_translation_element
from houghton.core import _Accumulator, _letter_rule
from instances import check, element, random_element, random_word


def words(n, max_len=8):
    letters = [(gid, sign) for gid in generator_ids(n) for sign in (1, -1)]
    return st.lists(st.sampled_from(letters), max_size=max_len).map(
        lambda ls: Word(n, tuple(ls))
    )


# -- identity and generators --------------------------------------------------


def test_identity_shape():
    e = identity(3)
    assert e.t == (0, 0, 0)
    assert e.exceptions == {}


def test_identity_fixes_points():
    assert apply(identity(3), (2, 5)) == (2, 5)


def test_identity_rejects_small_n():
    with pytest.raises(InvalidElementError):
        identity(1)


def test_max_exception_offset():
    # -1 on an empty table, else the largest offset in it
    assert identity(3).max_exception_offset() == -1
    assert generator(3, "g2").max_exception_offset() == 0
    assert HoughtonElement(2, (0, 0), {(1, 2): (2, 4), (2, 4): (1, 2)}).max_exception_offset() == 4


def test_generator_g2_translation():
    assert generator(3, "g2").t == (1, -1, 0)


def test_generator_action():
    g2 = generator(3, "g2")
    assert apply(g2, (2, 0)) == (1, 0)
    assert apply(g2, (1, 4)) == (1, 5)
    assert apply(g2, (2, 1)) == (2, 0)
    assert apply(g2, (3, 7)) == (3, 7)
    assert apply(g2, [2, 0]) == (1, 0)  # a list, as the constructor takes a point


@pytest.mark.parametrize(
    "point",
    [(1, 0.5), (1, True), (2, -0.0), (1.5, 0), ("1", 0), (1, 0, 0), (1,), "10", None, (4, 0), (1, -1)],
    ids=["fraction", "bool", "float-zero", "fraction-ray", "string-ray", "three", "one", "string", "none", "ray", "offset"],
)
def test_apply_refuses_what_is_not_a_point(point):
    # a point is two ints in the ray set: (1, 0.5) is not moved to (1, 1.5),
    # (1, True) not read as (1, 1), and (1, 0, 0) not cut to two
    with pytest.raises(InvalidElementError, match="^point %s is not in the ray set$" % re.escape(repr(point))):
        apply(generator(3, "g2"), point)


def test_transposition_generator():
    s = generator(2, "s")
    assert s.t == (0, 0)
    assert apply(s, (1, 0)) == (2, 0)
    assert apply(s, (2, 0)) == (1, 0)


def test_generator_invalid_id():
    # WordError names the gid and n, or the bound on n, for a word too
    with pytest.raises(WordError, match=r"^generator 's' is not valid for n=3$"):
        generator(3, "s")
    for make in (lambda: generator(3, "g4"), lambda: Word.parse(3, "g2 g4")):
        with pytest.raises(WordError, match=r"^generator 'g4' is not valid for n=3$"):
            make()
    # more digits than `int` reads, not a bare ValueError from the rule
    long_gid = "g" + "1" * 5000
    for make in (lambda: generator(3, long_gid), lambda: Word.parse(3, long_gid)):
        with pytest.raises(WordError, match=r"^generator '%s' is not valid for n=3$" % long_gid):
            make()
    for make in (lambda: generator(1, "g2"), lambda: Word.parse(1, "")):
        with pytest.raises(WordError, match=r"^n must be at least 2$"):
            make()


@pytest.mark.parametrize("n", [3.0, 2.5, "3", None])
def test_an_n_that_is_not_an_int_is_refused(n):
    # refused with the word or element error naming n, not a bare TypeError
    # and not a Word that fails later
    message = r"^n must be an int, not %s$" % re.escape(repr(n))
    for make in (
        lambda: generator_ids(n),
        lambda: Word.parse(n, "g2"),
        lambda: generator(n, "g2"),
        lambda: evaluate(Word(n, (("g2", 1),))),
    ):
        with pytest.raises(WordError, match=message):
            make()
    with pytest.raises(InvalidElementError, match=message):
        identity(n)


# -- words and evaluation ------------------------------------------------------


def test_word_parse_roundtrip():
    w = Word.parse(3, "g2 g3' g2'")
    assert str(w) == "g2 g3' g2'"
    assert len(w) == 3


def test_word_bad_token():
    # a token that is no letter is refused by the letter rule, by name
    with pytest.raises(WordError, match=r"^generator 'h2' is not valid for n=3$"):
        Word.parse(3, "g2 h2")


# the grammar that `Word.parse` matched each token against before the
# letter rule, kept as the reference of the test below
OLD_TOKEN_RE = re.compile(r"^(g[0-9]+|s)('?)$")


def test_parse_accepts_and_reads_tokens_as_the_old_grammar_did():
    # `Word.parse` reads a token by the letter rule alone: it accepts the
    # tokens that the old grammar matched and the rule then took, as the
    # same letters, and refuses every other token
    long_gid = "g" + "2" * 5000  # more digits than `int` reads
    tokens = ["'", "''", "s", "s'", "s''", "'s", "S", "S'", "g", "g'", "G2", "h2", "'g2", "g2''", "g2'g3"]
    tokens += ["g0", "g1", "g02", "g002'", "g-2", "g+2", "g2.0", "g2x", "g\u0662", "g\uff12", "g\u00b2"]
    tokens += [long_gid, long_gid + "'", "g0" + long_gid[1:], "g" + "3" * 4000]
    for n in range(2, 7):
        for gid in generator_ids(n) + ("g%d" % (n + 1),):
            tokens += [gid, gid + "'", gid + "''", "g0" + gid[1:]]
    for n in range(2, 7):
        for token in tokens:
            match = OLD_TOKEN_RE.match(token)
            expected = None
            if match is not None:
                gid, prime = match.groups()
                letter = (gid, -1 if prime else 1)
                if _letter_rule(n, letter) is not None:
                    expected = (letter,)
            try:
                read = Word.parse(n, token).letters
            except WordError:
                read = None
            assert read == expected, (n, token)


@pytest.mark.parametrize("text", [None, 5, b"g2"])
def test_word_text_that_is_not_a_string_is_refused(text):
    with pytest.raises(WordError, match="^word text must be a string, not %s$" % re.escape(repr(text))):
        Word.parse(3, text)


def test_a_gid_is_checked_in_constant_time():
    # a gid is checked by the letter rule, not against a list of H_n's
    # generators, so in H_200,000 a thousand tokens parse at once
    started = time.process_time()
    w = Word.parse(200_000, "g199999 " * 1000)
    assert time.process_time() - started < 0.1 and len(w) == 1000
    started = time.process_time()
    g = generator(200_000, "g199999")
    assert time.process_time() - started < 0.1 and g.exceptions == {(199999, 0): (1, 0)}


def test_evaluate_cancellation():
    assert element(3, "g2 g2'") == identity(3)


def test_checker_moves_g2_by_its_own_letter_rule():
    g2 = check.word_table(3, (("g2", 1),))
    assert check.image(g2, (2, 0)) == (1, 0)
    assert check.image(g2, (1, 2)) == (1, 3)
    assert check.image(g2, (2, 2)) == (2, 1)
    assert check.image(g2, (3, 1)) == (3, 1)


def test_checker_agrees_with_evaluate_and_generator():
    # the benchmark's checker simulates a word by its own letter rule,
    # written apart from core's `_letter_rule`, and shares no code with
    # `_Accumulator`: it checks the normal form of `evaluate` on seeded
    # words of lengths up to 40 in H_2..H_50 and on every single-letter
    # word, and of `generator` on every gid
    rng = random.Random("evaluate-fold")
    for n in range(2, 51):
        letters = [(gid, sign) for gid in generator_ids(n) for sign in (1, -1)]
        seeded = [Word(n, tuple(rng.choice(letters) for _ in range(length))) for length in (0, 1, 2, 5, 12, 40)]
        if n < 7:
            seeded += [random_word(n, seed, 6) for seed in range(20)]
        singles = [Word.parse(n, gid + prime) for gid in generator_ids(n) for prime in ("", "'")]
        cases = [(w, evaluate(w)) for w in seeded + singles]
        cases += [(Word.parse(n, gid), generator(n, gid)) for gid in generator_ids(n)]
        for w, e in cases:
            assert check.word_table(n, w.letters) == check.table_of(e), (n, str(w))


def test_evaluate_order_matters():
    assert element(3, "g2 g3") != element(3, "g3 g2")


def test_generator_returns_a_new_element_each_call():
    g, h = generator(3, "g2"), generator(3, "g2")
    assert g == h and g is not h and g.exceptions is not h.exceptions


def test_evaluate_of_one_letter_is_a_new_element():
    # evaluate builds a new element on every call
    for n in (2, 3):
        for gid in generator_ids(n):
            for sign in (1, -1):
                one, two = evaluate(Word(n, ((gid, sign),))), evaluate(Word(n, ((gid, sign),)))
                assert one == two and one is not two and one.exceptions is not two.exceptions


def test_evaluate_refuses_letters_not_in_h_n():
    long_gid = "g" + "1" * 5000  # more digits than `int` reads
    letters = [(("g9", 1), 3), (("g2", 2), 3), (("s", 1), 3), (("g3", 1), 2), (("h2", 1), 3), ((long_gid, 1), 3)]
    letters.append(((b"g2", 1), 3))  # a gid that is not a string has no rule
    for letter, n in letters:
        with pytest.raises(WordError, match="%r.*n=%d" % (letter[0], n)):
            evaluate(Word(n, (("g2", 1), letter)))


@pytest.mark.parametrize(
    "letter", [["g2", 1], (["g2"], 1), ("g2", [1]), {"g2": 1}], ids=["list", "list-gid", "list-sign", "dict"]
)
def test_evaluate_refuses_unhashable_letters(letter):
    # the rule's cache hashes a letter before the rule reads its shape, so
    # such a letter is refused by name, not with "unhashable type"
    with pytest.raises(WordError, match="^letter %s is not valid for n=3$" % re.escape(repr(letter))):
        evaluate(Word(3, (("g2", 1), letter)))


def test_apply_chained():
    e = element(3, "g2 g3")
    assert apply(e, (1, 0)) == (1, 2)


# -- group laws ------------------------------------------------------------------


def test_compose_translation_adds():
    e = compose(generator(3, "g2"), generator(3, "g3"))
    assert e.t == (2, -1, -1)


@settings(max_examples=60, deadline=None)
@given(words(3), words(3), words(3))
def test_associativity(u, v, w):
    a, b, c = evaluate(u), evaluate(v), evaluate(w)
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@settings(max_examples=60, deadline=None)
@given(words(2))
def test_inverse_law(w):
    g = evaluate(w)
    assert compose(g, inverse(g)) == identity(2)
    assert compose(inverse(g), g) == identity(2)


@settings(max_examples=60, deadline=None)
@given(words(3), words(3))
def test_translation_homomorphism(u, v):
    a, b = evaluate(u), evaluate(v)
    prod = compose(a, b)
    assert prod.t == tuple(x + y for x, y in zip(a.t, b.t))
    assert sum(prod.t) == 0


def test_inverse_examples():
    assert inverse(identity(3)) == identity(3)
    assert inverse(generator(3, "g2")).t == (-1, 1, 0)


def test_inverse_undoes_apply():
    for seed in range(20):
        g = evaluate(random_word(3, seed, 6))
        gi = inverse(g)
        for i in range(1, 4):
            for m in range(10):
                assert apply(gi, apply(g, (i, m))) == (i, m)


def test_normal_form_canonical():
    # freely equal words give identical serializations
    left = element(3, "g2 g3 g3' g2' g2")
    right = element(3, "g2")
    assert serialize(left) == serialize(right)


def test_equals_word_problem():
    w = random_word(3, 11, 7)
    ww = Word(3, w.letters + w.inverse().letters)
    assert equals(evaluate(ww), identity(3))


def test_conjugate_element_basics():
    g2, g3 = generator(3, "g2"), generator(3, "g3")
    assert conjugate_element(g2, identity(3)) == g2
    conj = conjugate_element(g2, g3)
    assert conj.t == g2.t
    # pointwise: (p)(g3^-1 g2 g3)
    g3i = inverse(g3)
    for i in range(1, 4):
        for m in range(8):
            p = (i, m)
            assert apply(conj, p) == apply(g3, apply(g2, apply(g3i, p)))


# -- products against the action, and conjugates against the accumulator -------------

FAR = 10**6


def _through_accumulator(*factors):
    """The product of the factors pushed onto one `_Accumulator`: a second
    side for `conjugate_element`, whose `_conjugated_table` shares no code
    with it.  It is `compose`'s own body, so it is no check of `compose`."""
    acc = _Accumulator(factors[0].n)
    for h in factors:
        acc.push(h.exceptions.items(), enumerate(h.t, 1))
    return acc.element()


def test_accumulator_refuses_a_product_that_is_not_a_bijection():
    # no word reaches this guard: after the first push (1, 0) is a table
    # point of the running product and no image of it, so nothing maps to
    # it, and a factor that moves (1, 0) finds it no preimage
    acc = _Accumulator(2)
    acc.push([((1, 0), (2, 0))], ())
    with pytest.raises(InvalidElementError, match="not a bijection"):
        acc.push([((1, 0), (1, 0))], ())


@pytest.mark.parametrize("n", [2, 3, 5])
def test_accumulator_keeps_its_inverse_exact(n):
    # `push` pops each rewritten entry's old image from `inv` before it
    # writes the new ones, so `inv` stays the table turned round; without
    # that pass the products come out the same, but `inv` keeps images
    # that no entry holds and grows past the table.  Seeded letters, with
    # now and then a whole element's table pushed as `compose` pushes it
    rng = random.Random(("accumulator-inverse", n).__repr__())
    letters = check.alphabet(n)
    factors = [random_element(n, seed, profile) for seed in range(4) for profile in ("word-6", "fsym")]
    acc = _Accumulator(n)
    for k in range(1, 3001):
        if k % 50:
            acc.push(*_letter_rule(n, rng.choice(letters)))
        else:
            f = rng.choice(factors)
            acc.push(f.exceptions.items(), enumerate(f.t, 1))
        if k % 100 == 0:
            assert acc.inv == {v: p for p, v in acc.table.items()}, (n, k)


def _far_swap(g):
    """g conjugated by the swap of its smallest table point with the point
    FAR further out on the same ray."""
    i, m = min(g.exceptions)
    swap = HoughtonElement(g.n, (0,) * g.n, {(i, m): (i, m + FAR), (i, m + FAR): (i, m)})
    return compose(compose(swap, g), swap)


def _product_inputs(n):
    """Seeded elements of H_n: words, their inverses (ray 1 translated
    inward), finite-support permutations, translation elements, and
    some of these moved near offset FAR by a swap."""
    rng = random.Random(("products", n).__repr__())
    out = []
    for seed in range(6):
        g = random_element(n, seed, "word-%d" % (3 + 2 * seed))
        out += [g, inverse(g), random_element(n, seed, "fsym")]
        w = [rng.randint(-3, 3) for _ in range(n - 1)]
        out.append(construct_translation_element(n, w + [-sum(w)]))
    out += [_far_swap(g) for g in out[:12] if g.exceptions]
    return out


def _probe_points(n, *elements):
    """Every table point and image of the elements, the preimages of
    those under each element, their neighbours, and a window of small
    offsets."""
    marks = set()
    for g in elements:
        for p, q in g.exceptions.items():
            marks.update((p, q))
    for g in elements:
        for j, k in list(marks):
            marks.add((j, k - g.t[j - 1]))
    points = {(i, m) for i in range(1, n + 1) for m in range(8)}
    for j, k in marks:
        points.update((j, k + d) for d in range(-2, 3) if k + d >= 0)
    return sorted(points)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_products_match_action_and_accumulator(n):
    inputs = _product_inputs(n)
    rng = random.Random(n)
    pairs = [(g, h) for g in inputs for h in inputs if rng.random() < 0.15]
    assert len(pairs) >= 50
    for g, h in pairs:
        gh = compose(g, h)
        for p in _probe_points(n, g, h):
            assert apply(gh, p) == apply(h, apply(g, p))
        assert HoughtonElement(gh.n, gh.t, gh.exceptions) == gh
        x_inv = inverse(h)
        c = conjugate_element(g, h)
        for p in _probe_points(n, x_inv, g, h):
            assert apply(c, p) == apply(h, apply(g, apply(x_inv, p)))
        assert c == _through_accumulator(x_inv, g, h)
        assert HoughtonElement(c.n, c.t, c.exceptions) == c


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_conjugate_by_letter_matches_action_and_accumulator(n):
    # a letter's table sits at offset 0, where the points off c's table
    # with p or p + t(c) on the letter's table give the exceptions
    letters = []
    for gid in generator_ids(n):
        g = generator(n, gid)
        letters += [g] if gid == "s" else [g, inverse(g)]
    for c in _product_inputs(n):
        for g in letters:
            result = conjugate_element(c, g)
            g_inv = inverse(g)
            for p in _probe_points(n, g_inv, c, g):
                assert apply(result, p) == apply(g, apply(c, apply(g_inv, p)))
            assert result == _through_accumulator(g_inv, c, g)
            assert HoughtonElement(result.n, result.t, result.exceptions) == result


def test_bijective_on_window():
    for seed in range(20):
        g = evaluate(random_word(3, seed, 8))
        top = max([m for (_, m) in g.exceptions] + [m for (_, m) in g.exceptions.values()] + [8])
        window = [(i, m) for i in range(1, 4) for m in range(top + 1)]
        images = [apply(g, p) for p in window]
        assert len(set(images)) == len(images)


# -- serialization ----------------------------------------------------------------


def test_serialize_identity_fixed():
    assert serialize(identity(2)) == '{"n":2,"t":[0,0],"exceptions":[]}'


def test_repr_lists_the_sorted_table():
    assert repr(generator(2, "s")) == "HoughtonElement(n=2, t=(0, 0), exceptions=[((1, 0), (2, 0)), ((2, 0), (1, 0))])"


def test_roundtrip_random():
    for seed in range(25):
        g = evaluate(random_word(3, seed, 8))
        assert deserialize(serialize(g)) == g


@pytest.mark.parametrize(
    "doc, message",
    [
        ("[2, [0, 0], []]", "element document must be an object"),
        ('"g2"', "element document must be an object"),
        ('{"n":"2","t":[0,0],"exceptions":[]}', "bad field types in element document"),
        ('{"n":2,"t":"00","exceptions":[]}', "bad field types in element document"),
        ('{"n":2,"t":[0,0],"exceptions":{}}', "bad field types in element document"),
        ("not json at all", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ('{"n": 2}', "missing fields: exceptions, t"),
        (
            '{"n":2,"t":[1,-1],"exceptions":[[[2,0],[1,%s]]]}' % ("9" * 5000),
            "not valid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
            "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit",
        ),
    ],
    ids=["array", "string", "string-n", "string-t", "object-table", "not-json", "missing-fields", "long-number"],
)
def test_deserialize_refuses_malformed_documents(doc, message):
    with pytest.raises(InvalidElementError, match="^%s$" % re.escape(message)):
        deserialize(doc)


@pytest.mark.parametrize(
    "entry",
    ['[[1,0],"21"]', '["10",[2,1]]', '[[1,0],{"2":0,"1":0}]', '{"a":[1,0],"b":[2,1]}', '[[1,0],[2,1,0]]', '[[1,0]]'],
    ids=["string-image", "string-point", "object-point", "object-entry", "long-point", "short-entry"],
)
def test_deserialize_takes_only_arrays_as_points(entry):
    # unpacked as a pair, "21" would read as the point (2, 1) and an object
    # as its two keys, so each document below would be the swap of (1, 0)
    # and (2, 1)
    doc = '{"n":2,"t":[0,0],"exceptions":[%s,[[2,1],[1,0]]]}' % entry
    with pytest.raises(InvalidElementError, match="^bad exception entry "):
        deserialize(doc)
    assert deserialize('{"n":2,"t":[0,0],"exceptions":[[[1,0],[2,1]],[[2,1],[1,0]]]}').exceptions == {
        (1, 0): (2, 1),
        (2, 1): (1, 0),
    }


# documents with two faults each, and the message the validation gives:
# recorded before the validation became one pass over the table, so the
# check that wins is pinned, not only that some check refuses
TWO_FAULTS = [
    # a ray out of range in a later entry, a non-minimal entry before it
    ('{"n":2,"t":[0,0],"exceptions":[[[1,0],[1,0]],[[3,0],[1,1]]]}', "ray 3 out of range"),
    ('{"n":2,"t":[0,0],"exceptions":[[[1,0],[1,0]],[[2,1],[2,-1]]]}', "negative offset at (2, -1)"),
    ('{"n":2,"t":[0,0],"exceptions":[[[1,0],[2,0]],[[1,1],[2,0]],[[1,2],[0,1]]]}', "ray 0 out of range"),
    # a non-minimal entry, and (2, 0) with no image
    (
        '{"n":2,"t":[1,-1],"exceptions":[[[1,5],[1,6]]]}',
        "non-minimal entry (1, 5) -> (1, 6) matches the tail formula",
    ),
    # (3, 0) with no image, and a repeated image
    (
        '{"n":3,"t":[1,0,-1],"exceptions":[[[1,0],[2,5]],[[2,1],[2,5]]]}',
        "point (3, 0) has no image: tail offset would be negative",
    ),
    # a repeated image, and a non-minimal entry after it
    (
        '{"n":2,"t":[0,0],"exceptions":[[[1,0],[2,0]],[[1,1],[2,0]],[[2,3],[2,3]]]}',
        "non-minimal entry (2, 3) -> (2, 3) matches the tail formula",
    ),
    # a tail collision at (2, 5), then a repeated image
    ('{"n":2,"t":[0,0],"exceptions":[[[1,0],[2,5]],[[1,1],[1,2]],[[2,0],[1,2]]]}', "two points map to (1, 2)"),
    # two repeated images: the first in table order is named
    ('{"n":2,"t":[0,0],"exceptions":[[[1,0],[1,4]],[[1,1],[1,4]],[[1,2],[1,3]],[[1,5],[1,3]]]}', "two points map to (1, 4)"),
    # two tail collisions: the first in table order is named
    (
        '{"n":2,"t":[0,0],"exceptions":[[[1,0],[2,8]],[[2,0],[2,9]]]}',
        "(2, 8) is hit both by an exception and by the tail formula",
    ),
    # a tail collision, and (1, 0), which no point hits
    ('{"n":2,"t":[1,-1],"exceptions":[[[2,0],[2,7]]]}', "(2, 7) is hit both by an exception and by the tail formula"),
    # a tail collision, and the tail image (1, 3) of (1, 3), which no point hits
    (
        '{"n":2,"t":[0,0],"exceptions":[[[1,0],[1,1]],[[1,1],[1,0]],[[1,3],[1,2]],[[2,0],[2,9]]]}',
        "(1, 2) is hit both by an exception and by the tail formula",
    ),
    # n below 2, t of the wrong length, a negative domain offset, each with
    # a non-minimal entry before it
    ('{"n":1,"t":[0],"exceptions":[[[1,0],[1,0]]]}', "n must be at least 2"),
    ('{"n":2,"t":[0,0,0],"exceptions":[[[1,0],[1,0]]]}', "translation vector must have length n"),
    ('{"n":2,"t":[0,0],"exceptions":[[[1,0],[1,0]],[[1,-2],[2,0]]]}', "negative offset at (1, -2)"),
]


@pytest.mark.parametrize("doc, message", TWO_FAULTS)
def test_validation_names_the_fault_that_wins(doc, message):
    with pytest.raises(InvalidElementError) as raised:
        deserialize(doc)
    assert str(raised.value) == message
    data = json.loads(doc)
    with pytest.raises(InvalidElementError) as raised:
        HoughtonElement(data["n"], data["t"], [(tuple(p), tuple(q)) for p, q in data["exceptions"]])
    assert str(raised.value) == message


# malformed documents and the message that refuses each, by either route:
# one fault each, then two faults, where the fault in n or t wins over the
# table's, as the constructor reads n, then t, then the table
MALFORMED = [
    ('{"n":true,"t":[0,0],"exceptions":[]}', "not an integer: True"),
    ('{"n":2,"t":[1.5,-1.5],"exceptions":[[[2,0],[1,0]]]}', "not an integer: 1.5"),
    ('{"n":2,"t":["x",0],"exceptions":[]}', "not an integer: 'x'"),
    ('{"n":2,"t":[0,0],"exceptions":[[[1,0],"21"],[[2,1],[1,0]]]}', "bad exception entry [[1, 0], '21']"),
    (
        '{"n":2,"t":[0,0],"exceptions":[[[1,0],[2,0]],[[1,0],[1,1]],[[2,0],[1,0]]]}',
        "duplicate exception domain point (1, 0)",
    ),
    ('{"n":2,"t":[0,0,0],"exceptions":[]}', "translation vector must have length n"),
    ('{"n":2,"t":[1,0],"exceptions":[]}', "translation vector must sum to zero"),
    ('{"n":2,"t":[0,0],"exceptions":[[[1,0],[2,1]],[[2,0],[2,1]],[[2,1],[1,0]]]}', "two points map to (2, 1)"),
    ('{"n":2,"t":[0,0],"exceptions":[[[1,0],[1,1]],[[1,2],[1,1]]]}', "two points map to (1, 1)"),
    ('{"n":2,"t":[0,0],"exceptions":[[[1,0],[1,0]]]}', "non-minimal entry (1, 0) -> (1, 0) matches the tail formula"),
    # t_2 = -1 forces (2, 0) into the table
    ('{"n":2,"t":[1,-1],"exceptions":[]}', "point (2, 0) has no image: tail offset would be negative"),
    ('{"n":2,"t":[0.5,-0.5],"exceptions":[[[1,0],"21"]]}', "not an integer: 0.5"),
    ('{"n":true,"t":[0,0],"exceptions":[[[1,0],"21"]]}', "not an integer: True"),
]


@pytest.mark.parametrize(
    "doc, message",
    MALFORMED,
    ids=[
        "bool-n",
        "fraction-t",
        "string-t",
        "string-point",
        "duplicate-point",
        "t-length",
        "t-sum",
        "not-injective",
        "not-injective-on-one-ray",
        "non-minimal",
        "no-image-below-the-tail",
        "fraction-t-and-string-point",
        "bool-n-and-string-point",
    ],
)
def test_constructor_and_documents_refuse_alike(doc, message):
    # a document is built by the constructor, so both refuse with one message
    data = json.loads(doc)
    with pytest.raises(InvalidElementError) as by_document:
        deserialize(doc)
    with pytest.raises(InvalidElementError) as by_constructor:
        HoughtonElement(data["n"], data["t"], data["exceptions"])
    assert str(by_document.value) == str(by_constructor.value) == message


def dense_bijection(n, t, table):
    """Reference for validation: the table is minimal, and the map is total,
    injective and onto on a window past the table and every |t_i|.  Beyond
    the window the map translates points off the table, so there it is
    total, injective and onto as well."""
    tail = lambda p: (p[0], p[1] + t[p[0] - 1])  # noqa: E731
    top = 1 + max((m for entry in table.items() for _, m in entry), default=-1)
    reach = max(map(abs, t))
    inner = top + reach + 1  # every point from here on is a tail image
    window = [(i, m) for i in range(1, n + 1) for m in range(inner + reach)]
    images = [table.get(p) or tail(p) for p in window]
    hit = set(images)
    return (
        all(q != tail(p) for p, q in table.items())
        and all(k >= 0 for _, k in images)
        and len(hit) == len(images)
        and all((i, m) in hit for i in range(1, n + 1) for m in range(inner))
    )


def test_validation_accepts_exactly_the_bijections(tool):
    # every table of distinct images on small offsets, 61,644 in all (the
    # sweep of tools/census.py): the constructor accepts one exactly when
    # the dense reference does, and the census's direct enumeration of
    # the valid tables lists exactly those, in the same order
    census = tool("census")
    tables = 0
    accepted = []
    for n, t, table in census.tables():
        try:
            HoughtonElement(n, t, table)
            valid = True
        except InvalidElementError:
            valid = False
        assert valid == dense_bijection(n, t, table), (n, t, table)
        tables += 1
        if valid:
            accepted.append((n, t, list(table.items())))
    assert (tables, len(accepted)) == (61_644, 567)
    assert [(n, t, list(table.items())) for n, t, table in census.valid_tables(census.SWEEP)] == accepted


def test_census_components_stay_in_one_class(tool):
    # the 567 valid tables of that sweep, partitioned by `conjugate` and by
    # conjugation with letters through elements of at most 6 entries at
    # offsets below 4, computed without the package: a component that held
    # two classes would show a wrong answer.  Every pair decided on the way
    # decides alike inverted.  The counts are a run's
    classes, components, visited, spans, inverted = tool("census").census(4)
    assert spans == [] and inverted == []
    assert (classes, components, visited) == (64, 72, 85_130)


def test_census_of_h4_stays_in_one_class(tool):
    # the 330 valid tables of the H_4 sweep, built directly: 212 with two
    # ends classes (gcd 2 across them at t = (2, -2, 2, -2)) and 118 with
    # one class over three or four rays.  Against the class
    # representatives of equal t, every orbit tag occurs, every pair the
    # partition decides decides alike inverted, and at W = 3 the
    # components are the 31 classes.  The counts are a run's
    census = tool("census")
    members = census.elements(census.SWEEP_H4)
    shapes = collections.Counter(tuple(sorted(map(len, ends_partition(g).classes))) for g in members)
    assert shapes == {(2, 2): 212, (3,): 102, (4,): 16}
    cls, inverted = census.classes(members)
    assert inverted == []
    heads = [members[h] for h in set(cls)]
    tags = collections.Counter(houghton.conjugate(h, g).reason for g in members for h in heads if h.t == g.t)
    assert tags == {
        None: 330,
        "cycle-type-mismatch": 1326,
        "orbit-pairing-mismatch": 460,
        "orbit-shift-mismatch": 32,
    }
    classes, components, visited, spans, inverted = census.census(3, census.SWEEP_H4)
    assert spans == [] and inverted == []
    assert (classes, components, visited) == (31, 31, 47_810)


def test_wide_census_of_h4_tags(tool):
    # the 1,106 valid tables of the wide H_4 sweep, whose refusals draw a
    # second choice of a class the class loop stopped in 152 times.  Each
    # element is conjugate to exactly one of the 72 class representatives
    # of its t, every pair the partition decides decides alike inverted,
    # and every orbit tag occurs.  The components, at W = 4, are left to
    # the main run of tools/census.py (about 20 s).  The counts are a run's
    census = tool("census")
    members = census.elements(census.SWEEP_H4_WIDE)
    shapes = collections.Counter(tuple(sorted(map(len, ends_partition(g).classes))) for g in members)
    assert shapes == {(2, 2): 380, (4,): 352, (2,): 272, (3,): 102}
    cls, inverted = census.classes(members)
    assert inverted == []
    heads = [members[h] for h in set(cls)]
    assert len(heads) == 72
    tags = collections.Counter(houghton.conjugate(h, g).reason for g in members for h in heads if h.t == g.t)
    assert tags == {
        None: 1106,
        "cycle-type-mismatch": 9394,
        "orbit-pairing-mismatch": 7580,
        "orbit-shift-mismatch": 1060,
    }


@pytest.fixture
def roundtrip_pool(tool):
    """The (a, a^x) pairs of the benchmark's `roundtrip` workload, drawn by
    `bench/workloads.py` as `tools/workcount.py` imports it."""
    workloads = tool("workcount").workloads
    return [workloads._roundtrip_pair(houghton, k) for k in range(workloads.ROUNDTRIP_POOL)]


def test_serialize_is_pinned(roundtrip_pool):
    # the documents of the roundtrip pool, of their conjugates and of the
    # products, byte for byte, recorded before the encoder was shared
    digest = hashlib.sha256()
    for a, b in roundtrip_pool:
        for g in (a, b, compose(a, b), inverse(b)):
            text = serialize(g)
            assert deserialize(text) == g
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == "43229fa14996260272276e862227c05992450c8bd3425ef1877b9b71661ed2f5"


# -- equality and hashing -------------------------------------------------------


def _reordered(g, seed):
    """The same element with its exception table in another insertion order."""
    items = list(g.exceptions.items())
    random.Random(seed).shuffle(items)
    return HoughtonElement(g.n, g.t, dict(items))


def _sorted_key(g):
    return (g.n, g.t, sorted(g.exceptions.items()))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 4),
    seeds=st.tuples(st.integers(0, 40), st.integers(0, 40)),
    profiles=st.tuples(*[st.sampled_from(["word-3", "word-6", "fsym"])] * 2),
    shuffle=st.integers(0, 10**6),
)
def test_equality_matches_sorted_key_and_hash(n, seeds, profiles, shuffle):
    g = random_element(n, seeds[0], profiles[0])
    h = random_element(n, seeds[1], profiles[1])
    variants = [
        g,
        h,
        _reordered(g, shuffle),
        _reordered(h, shuffle + 1),
        inverse(inverse(g)),
        compose(h, identity(n)),
    ]
    if len(g.exceptions) >= 2:
        # conjugating by a swap of two table points often keeps the table's
        # domain and changes its images
        p, q = sorted(g.exceptions)[:2]
        variants.append(conjugate_element(g, HoughtonElement(n, (0,) * n, {p: q, q: p})))
    for x in variants:
        for y in variants:
            assert (x == y) == (_sorted_key(x) == _sorted_key(y))
            if x == y:
                assert hash(x) == hash(y)
    assert variants[2] == g and variants[3] == h and variants[4] == g and variants[5] == h


def test_public_constructor_still_coerces_and_validates():
    g = HoughtonElement(3.0, [1.0, -1, 0], [((2.0, 0), ("1", 0))])
    assert g == generator(3, "g2")
    assert type(g.n) is int and type(g.t) is tuple
    assert all(type(v) is int for p, q in g.exceptions.items() for v in p + q)
    assert hash(g) == hash(generator(3, "g2"))
    with pytest.raises(InvalidElementError):
        HoughtonElement(3, (1, -1, 0), {(2, 0): (1, 0), (3, 0): (3, 0)})
    with pytest.raises(InvalidElementError):
        HoughtonElement(3, (1, 0, 0), {})


@pytest.mark.parametrize(
    "n, t, exceptions",
    [
        (2, [1.5, -1.5], {(2, 0): (1, 0)}),
        (2, [float("inf"), 0], {}),
        (2, [float("nan"), 0], {}),
        (2.5, [0, 0], {}),
        (2, [0, 0], {(1, 0.5): (2, 0), (2, 0): (1, 0.5)}),
        (2, [0, 0], {(1, 0): (2, float("inf")), (2, float("inf")): (1, 0)}),
        (2, [True, -1], {(2, 0): (1, 0)}),
        (2, ["1_0", -10], {(2, k): (1, k) for k in range(10)}),
        (2, [" 7 ", -7], {(2, k): (1, k) for k in range(7)}),
        (2, ["+3", -3], {(2, k): (1, k) for k in range(3)}),
        (2, ["\u0661\u0662", -12], {(2, k): (1, k) for k in range(12)}),
    ],
    ids=[
        "fraction-t",
        "infinite-t",
        "nan-t",
        "fraction-n",
        "fraction-point",
        "infinite-point",
        "bool-t",
        "underscore-t",
        "spaced-t",
        "plus-t",
        "arabic-indic-t",
    ],
)
def test_public_constructor_refuses_non_integers(n, t, exceptions):
    # refused like a document with such values, not truncated to a valid
    # element and not an OverflowError
    with pytest.raises(InvalidElementError):
        HoughtonElement(n, t, exceptions)


@pytest.mark.parametrize(
    "t, exceptions",
    [
        ((0, 0), {"10": "11", "11": "10"}),
        ((0, 0), {(1, 0, 5): (2, 0), (2, 0): (1, 0)}),
        ((0, 0), {(1, 0): (2, 0, 7), (2, 0): (1, 0)}),
        ((0, 0), [((1, 0), (1, 1)), ((1, 0), (2, 0)), ((2, 0), (1, 0))]),
        ((0, 0), {(1, 0): (2, 0), ("1", 0): (2, 0), (2, 0): (1, 0)}),
        ((0, 0), [((1, 0), {2: 0, 1: 0}), ((2, 1), (1, 0))]),
        ((0, 0), [((1, 0), range(2, 4)), ((2, 3), (1, 0))]),
        ("00", {}),
        ({1: 0, -1: 0}, {(2, 0): (1, 0)}),
        ({1, -1}, {(2, 0): (1, 0)}),
    ],
    ids=[
        "string-point",
        "three-coordinates",
        "three-coordinate-image",
        "repeated-point",
        "repeated-after-coercion",
        "dict-point",
        "range-point",
        "string-t",
        "dict-t",
        "set-t",
    ],
)
def test_public_constructor_refuses_malformed_points(t, exceptions):
    # refused like a document with such points: not read as (1, 0) from
    # "10", as (2, 1) from a dict's keys or as (2, 3) from a range, not cut
    # to two coordinates, and not the last image of a repeated point, each
    # of which would make a valid transposition.  A translation vector is
    # refused alike: not read as (0, 0) from "00" or as (1, -1) from a
    # dict's keys, which would make the identity and g2, nor from a set,
    # which has no order
    with pytest.raises(InvalidElementError):
        HoughtonElement(2, t, exceptions)


def test_deserialize_still_coerces_and_validates():
    g = deserialize('{"n":3,"t":[1.0,-1,0],"exceptions":[[["2",0],[1,0.0]]]}')
    assert g == generator(3, "g2")
    assert all(type(v) is int for v in g.t)
    assert all(type(v) is int for p, q in g.exceptions.items() for v in p + q)
    with pytest.raises(InvalidElementError):
        deserialize('{"n":3,"t":[1,-1,0],"exceptions":[[[2,0],[1,1]]]}')
    with pytest.raises(InvalidElementError):
        deserialize('{"n":3,"t":[1,-1,0],"exceptions":[[["x",0],[1,0]]]}')


# a value that is NaN, infinite, a fraction, a boolean or a string that is
# not ASCII digits, in t or in a point of the table; truncating 1.5 to 1, or
# reading true, "0_1", " 1 ", "+1" or an Arabic-Indic one as 1, would make
# each document a valid element
NOT_INTEGERS = ["Infinity", "-Infinity", "NaN", "1.5", "true", '"0_1"', '" 1 "', '"+1"', '"\u0661"']
NOT_INTEGER_DOCS = [
    '{"n":2,"t":[%s,-1],"exceptions":[[[2,0],[1,0]]]}',
    '{"n":2,"t":[0,0],"exceptions":[[[1,%s],[2,0]],[[2,0],[1,1]]]}',
    '{"n":2,"t":[0,0],"exceptions":[[[1,1],[2,0]],[[2,0],[1,%s]]]}',
]


@pytest.mark.parametrize("value", NOT_INTEGERS)
@pytest.mark.parametrize("doc", NOT_INTEGER_DOCS, ids=["t", "domain", "image"])
def test_deserialize_refuses_non_integers(doc, value):
    # refused, not truncated and not an OverflowError
    with pytest.raises(InvalidElementError):
        deserialize(doc % value)


def test_deserialize_refuses_booleans_by_name():
    # read as 1 and 0, this document would be g2
    with pytest.raises(InvalidElementError, match="^not an integer: True$"):
        deserialize('{"n":3,"t":[true,-1,0],"exceptions":[[[2,0],[true,0]]]}')
