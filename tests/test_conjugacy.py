import collections
import hashlib
import itertools
import json
import operator
import random
import subprocess
import sys
import time
from math import gcd
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from houghton import (
    BoundData,
    ConjugacyOutcome,
    HoughtonElement,
    InvalidElementError,
    apply,
    centralizer_element,
    compose,
    conjugate,
    conjugate_element,
    cycle_decomposition,
    cycle_type,
    ends_partition,
    equals,
    evaluate,
    fixed_point_count,
    fsym_conjugate,
    generator,
    identity,
    inverse,
    serialize,
    sym_conjugate,
    verify,
)
from houghton import conjugacy, orbits
from houghton.cli import main
from houghton.conjugacy import (
    CYCLE_TYPE_MISMATCH,
    FORCED_MAP_INCONSISTENT,
    ORBIT_PAIRING_MISMATCH,
    ORBIT_SHIFT_MISMATCH,
    SUPPORT_COUNT_MISMATCH,
    TRANSLATION_MISMATCH,
    compute_bounds,
    construct_translation_element,
)
from houghton.oracle import SearchBudget, brute_force_conjugator
from houghton.orbits import WalkLimitError
from instances import drawn_cases, element, lift, random_element, random_word, rotation_family, successor

ROOT = Path(__file__).resolve().parents[1]


def fsym(n, *pairs):
    return HoughtonElement(n, (0,) * n, dict(pairs))


# -- verify ---------------------------------------------------------------------


def test_verify_identity_conjugator():
    g = element(3, "g2 g3")
    assert verify(g, g, identity(3))


def test_verify_detects_wrong_certificate():
    g2, g3 = generator(3, "g2"), generator(3, "g3")
    assert verify(g2, conjugate_element(g2, g3), g3)
    assert not verify(g2, g3, identity(3))


# -- finite-support conjugators ----------------------------------------------------


def test_fsym_same_element():
    g = element(3, "g2 g3")
    out = fsym_conjugate(g, g)
    assert out.is_conjugate and out.verified
    assert out.conjugator.t == (0, 0, 0)


def test_fsym_translation_mismatch():
    out = fsym_conjugate(generator(3, "g2"), generator(3, "g3"))
    assert not out.is_conjugate
    assert out.reason == TRANSLATION_MISMATCH


def test_fsym_cycle_type_mismatch():
    two = fsym(2, ((1, 0), (1, 1)), ((1, 1), (1, 0)))
    three = fsym(2, ((1, 0), (1, 1)), ((1, 1), (1, 2)), ((1, 2), (1, 0)))
    out = fsym_conjugate(two, three)
    assert out.reason == CYCLE_TYPE_MISMATCH


def test_fsym_conjugate_transpositions():
    a = fsym(2, ((1, 0), (2, 0)), ((2, 0), (1, 0)))
    b = fsym(2, ((1, 3), (1, 5)), ((1, 5), (1, 3)))
    out = fsym_conjugate(a, b)
    assert out.is_conjugate and out.verified
    assert verify(a, b, out.conjugator)


def test_fsym_roundtrip_random():
    for seed in range(40):
        a = random_element(3, seed, profile="fsym")
        x = random_element(3, seed + 500, profile="fsym")
        b = conjugate_element(a, x)
        out = fsym_conjugate(a, b)
        assert out.is_conjugate and out.verified
        assert out.conjugator.t == (0, 0, 0)


def test_fsym_roundtrip_with_translation():
    # the elements may translate; only the conjugator is finite-support
    for seed in range(25):
        a = evaluate(random_word(3, seed, 7))
        x = random_element(3, seed + 900, profile="fsym")
        b = conjugate_element(a, x)
        out = fsym_conjugate(a, b)
        assert out.is_conjugate and out.verified


def test_fsym_support_count_mismatch():
    # both have cycle type ((), 1), but b fixes (1,0) and a moves everything
    a = generator(2, "g2")
    b = HoughtonElement(2, (1, -1), {(2, 0): (1, 1), (1, 0): (1, 0)})
    assert not a.exceptions.get((1, 0))
    out = fsym_conjugate(a, b)
    assert not out.is_conjugate
    assert out.reason == SUPPORT_COUNT_MISMATCH


def reference_unmatched_fixed(a, b, s):
    """The fixed points p of a whose translate p + s is not fixed by b,
    read point by point: the form `_unmatched_fixed` had before it became
    one loop per table."""
    ae, be, t = a.exceptions, b.exceptions, a.t

    def fixed_by_b(i, m):
        q = be.get((i, m))
        if q is not None:
            return q == (i, m)
        return m >= 0 and t[i - 1] == 0

    out = [p for p, q in ae.items() if p == q and not fixed_by_b(p[0], p[1] + s[p[0] - 1])]
    for (i, k), q in be.items():
        if t[i - 1] == 0 and q != (i, k):
            p = (i, k - s[i - 1])
            if p[1] >= 0 and p not in ae:
                out.append(p)
    for i, step in enumerate(t, 1):
        if step == 0:
            out.extend((i, m) for m in range(-s[i - 1]) if (i, m) not in ae)
    return sorted(out)


def test_unmatched_fixed_matches_reference():
    # seeded pairs with equal t in H_2..H_4 (conjugates, and products with
    # a finite permutation) against small translations s, both ways round;
    # each kind of unmatched point occurs, with and without a fixed ray
    rng = random.Random("unmatched-fixed")
    kinds = collections.Counter()
    for k in range(1500):
        n = 2 + k % 3
        a = random_element(n, k, rng.choice(["word-3", "word-6", "fsym"]))
        x = random_element(n, k + 1, rng.choice(["word-3", "fsym"]))
        b = conjugate_element(a, x) if k % 2 else compose(a, random_element(n, k + 2, "fsym"))
        s = [rng.randint(-4, 4) for _ in range(n)]
        s[-1] -= sum(s)
        for g, h, v in ((a, b, s), (b, a, [-w for w in s])):
            out = conjugacy._unmatched_fixed(g, h, v)
            assert out == reference_unmatched_fixed(g, h, v), (g, h, v)
            for i, m in out:
                kinds["fixed ray" if 0 in g.t else "all move", "entry" if (i, m) in g.exceptions else "tail"] += 1
    assert len(kinds) == 3 and min(kinds.values()) >= 20, kinds


# -- translation scaffolding ---------------------------------------------------------


def test_construct_translation_reproduces_generator():
    assert construct_translation_element(3, (1, -1, 0)) == generator(3, "g2")


def test_construct_translation_random_vectors():
    vectors = [(2, -1, -1), (0, 3, -3), (-2, 1, 1), (1, 1, -2)]
    for w in vectors:
        g = construct_translation_element(3, w)
        assert g.t == w


def test_construct_translation_maps_in_ray_order():
    # the points below -w_j go, in ray order, onto the points below w_i
    g = construct_translation_element(3, (2, -1, -1))
    assert g.exceptions == {(2, 0): (1, 0), (3, 0): (1, 1)}
    g = construct_translation_element(4, (-2, 1, -1, 2))
    assert g.exceptions == {(1, 0): (2, 0), (1, 1): (4, 0), (3, 0): (4, 1)}


@pytest.mark.parametrize(
    "call",
    [
        compose,
        equals,
        conjugate_element,
        fsym_conjugate,
        conjugate,
        sym_conjugate,
        lambda a, b: brute_force_conjugator(a, b, SearchBudget(1)),
    ],
    ids=["compose", "equals", "conjugate_element", "fsym_conjugate", "conjugate", "sym_conjugate", "oracle"],
)
def test_elements_of_different_h_n_are_refused(call):
    # one check in core refuses every pair, with one type and one message
    with pytest.raises(InvalidElementError, match="^elements live in different H_n: n=2 and n=3$"):
        call(generator(2, "g2"), generator(3, "g2"))


def test_construct_translation_rejects_bad_sum():
    with pytest.raises(ValueError):
        construct_translation_element(3, (1, 0, 0))


@pytest.mark.parametrize(
    "n, w", [(3, (1.5, -1.5, 0)), (3, ("x", -1, 1)), (3.0, (1, -1, 0))], ids=["fraction", "text", "float-n"]
)
def test_construct_translation_refuses_non_integers(n, w):
    # refused, not truncated: int(1.5) would give t = (1, -1, 0)
    with pytest.raises(InvalidElementError):
        construct_translation_element(n, w)


def test_centralizer_element_of_g2():
    g = generator(3, "g2")
    assert centralizer_element(g, {1, 2}) == g


def test_centralizer_element_rejects_non_class():
    with pytest.raises(ValueError):
        centralizer_element(element(3, "g2 g3"), {1, 2})


def dense_centralizer_element(g, ray_class):
    """Reference: the centralizer element that tests every point up to the
    largest offset of g's table and orbits.  Its cost grows with the
    offsets; centralizer_element must agree with it exactly."""
    cls = frozenset(ray_class)
    dec = cycle_decomposition(g)
    included = [o for o in dec.infinite_orbits if o.pos_ray in cls]
    t_masked = tuple(v if (i + 1) in cls else 0 for i, v in enumerate(g.t))

    spine_points = {p for o in included for p in o.spine}
    tails = {}
    for o in included:
        tails[(o.pos_ray, o.pos_residue)] = o.pos_cutoff
        tails[(o.neg_ray, o.neg_residue)] = o.neg_cutoff

    def member(p):
        if p in spine_points:
            return True
        i, m = p
        step = abs(g.t[i - 1])
        if step == 0:
            return False
        cutoff = tails.get((i, m % step))
        return cutoff is not None and m >= cutoff

    top = max(
        [g.max_exception_offset()]
        + [m for o in dec.infinite_orbits for _, m in o.spine]
        + [o.pos_cutoff for o in dec.infinite_orbits]
        + [o.neg_cutoff for o in dec.infinite_orbits]
        + [0]
    )
    exc = {}
    for i in range(1, g.n + 1):
        for m in range(top + 1):
            p = (i, m)
            img = apply(g, p) if member(p) else p
            tail = m + t_masked[i - 1]
            if tail < 0 or img != (i, tail):
                exc[p] = img
    return HoughtonElement(g.n, t_masked, exc)


def test_centralizer_element_matches_dense_reference():
    # words, words times a finite permutation (finite cycles and fixed points
    # on the class's rays) and words lifted so that orbits of other classes
    # cross the class's rays
    checked = 0
    for seed in range(150):
        n = 2 + seed % 3
        g = random_element(n, seed)
        for h in (
            g,
            compose(g, random_element(n, seed, profile="fsym")),
            conjugate_element(g, lift(n, 10 + seed % 7, 1 + g.max_exception_offset())),
        ):
            for cls in ends_partition(h).classes:
                assert centralizer_element(h, cls) == dense_centralizer_element(h, cls)
                checked += 1
    assert checked >= 400


def test_centralizer_element_far_offset():
    # g2 times a transposition on the fixed ray 3, far out: the class {1, 2}
    # gives back g2 without a scan up to the transposition
    d = 10**6
    g = compose(generator(3, "g2"), fsym(3, ((3, d), (3, d + 1)), ((3, d + 1), (3, d))))
    started = time.process_time()
    c = centralizer_element(g, {1, 2})
    assert time.process_time() - started < 0.1
    assert c == generator(3, "g2")


def long_run(d):
    """g in H_4 with t = (1, -1, 1, -1) whose orbit of the class {1, 2}
    crosses ray 3, of the class {3, 4}, in a run of d + 1 points."""
    return HoughtonElement(4, (1, -1, 1, -1), {(2, 0): (3, 0), (3, d): (1, 0), (4, 0): (3, d + 1)})


def test_centralizer_element_far_run_hits_the_walk_limit():
    # listing the run would take 10^9 entries; it is refused before any is listed
    g = long_run(10**9)
    started = time.process_time()
    with pytest.raises(WalkLimitError):
        centralizer_element(g, {1, 2})
    assert time.process_time() - started < 0.1


def test_centralizer_element_limit_counts_its_entries(monkeypatch):
    g = long_run(50)
    entries = len(centralizer_element(g, {1, 2}).exceptions)
    monkeypatch.setattr(orbits, "_WALK_LIMIT", entries)
    c = centralizer_element(g, {1, 2})
    assert compose(c, g) == compose(g, c)
    monkeypatch.setattr(orbits, "_WALK_LIMIT", entries - 1)
    with pytest.raises(WalkLimitError):
        centralizer_element(g, {1, 2})


def test_construct_translation_limit_counts_its_entries(monkeypatch):
    d = 50
    monkeypatch.setattr(orbits, "_WALK_LIMIT", d)
    assert len(construct_translation_element(3, (d, 0, -d)).exceptions) == d
    monkeypatch.setattr(orbits, "_WALK_LIMIT", d - 1)
    with pytest.raises(WalkLimitError):
        construct_translation_element(3, (d, 0, -d))


# -- bounds -------------------------------------------------------------------------


def test_bounds_for_generator_pair():
    g = generator(3, "g2")
    bounds = compute_bounds(g, g)
    assert (bounds.K, bounds.M) == (4, 1)


def test_bounds_refuse_orbits_without_counterpart():
    # a's orbits run from ray 3 to 1 and from 4 to 2, b's from 4 to 1 and
    # from 3 to 2
    t = (1, 1, -1, -1)
    a = HoughtonElement(4, t, {(3, 0): (1, 0), (4, 0): (2, 0)})
    b = HoughtonElement(4, t, {(4, 0): (1, 0), (3, 0): (2, 0)})
    with pytest.raises(ValueError, match="no counterpart"):
        compute_bounds(a, b)


def test_bounds_refuse_unequal_translations():
    with pytest.raises(ValueError, match="^bounds require equal translation vectors$"):
        compute_bounds(generator(3, "g2"), generator(3, "g3"))


def test_bounds_zero_when_no_moving_rays():
    a = fsym(2, ((1, 0), (1, 1)), ((1, 1), (1, 0)))
    bounds = compute_bounds(a, a)
    assert (bounds.K, bounds.M) == (0, 0)


def test_conjugate_by_a_translation_element_roundtrip():
    # b = a^z for z = construct_translation_element(3, (2, -1, -1)), whose
    # translation is divisible by |t_i(a)| on every ray
    a = element(3, "g2 g3")
    z = construct_translation_element(3, (2, -1, -1))
    b = conjugate_element(a, z)
    out = conjugate(a, b)
    assert out.is_conjugate and out.verified
    assert out.bounds is not None


# -- full decision --------------------------------------------------------------------


def test_outcome_records():
    # outcomes and bounds are named tuples, built positionally or by keyword
    # as the reference solvers below build them; equal outcomes compare
    # equal, and no field can be assigned
    x = element(3, "g3 g2'")
    no = ConjugacyOutcome(None, reason=CYCLE_TYPE_MISMATCH)
    yes = ConjugacyOutcome(x, verified=True)
    assert (no.conjugator, no.verified, no.reason, no.bounds) == (None, False, CYCLE_TYPE_MISMATCH, None)
    assert (yes.conjugator, yes.verified, yes.reason, yes.bounds) == (x, True, None, None)
    assert not no.is_conjugate and yes.is_conjugate
    assert yes == ConjugacyOutcome(element(3, "g3 g2'"), True) and yes != no
    bounds = BoundData(K=3, M=2)
    assert (bounds.K, bounds.M) == (3, 2) and repr(bounds) == "BoundData(K=3, M=2)"
    for record, field in ((yes, "verified"), (no, "reason"), (bounds, "K")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    a = element(3, "g2 g3")
    out = conjugate(a, conjugate_element(a, x))
    assert out.is_conjugate and out.verified and out.reason is None and isinstance(out.bounds, BoundData)


def count_builder_calls(monkeypatch):
    """The calls of the conjugator builder that both `fsym_conjugate` and
    `conjugate` end in: an empty list means refused before any candidate."""
    calls = []
    real = conjugacy._forced_conjugator

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(conjugacy, "_forced_conjugator", counting)
    return calls


def test_conjugate_orbit_pairing_mismatch(monkeypatch):
    # same translation, cycle type and fixed-point count, but the infinite
    # orbits pair up in no residue class: refused before any candidate
    a = element(2, "g2' g2' g2' g2 g2'")
    b = element(2, "g2' s g2' s g2'")
    assert a.t == b.t == (-3, 3) and cycle_type(a) == cycle_type(b)
    calls = count_builder_calls(monkeypatch)
    out = conjugate(a, b)
    assert not out.is_conjugate
    assert out.reason == ORBIT_PAIRING_MISMATCH
    assert calls == []
    assert brute_force_conjugator(a, b, SearchBudget(6)) is None


def test_conjugate_refuses_on_orbit_shift_mismatch(monkeypatch):
    # n3-g26-01 of the benchmark's same-invariant family, which the bounded
    # level search could not decide: the orbits pair up, but both run from
    # ray 1 to ray 3, and once ray 3 is lined up they need different shifts
    # of ray 1
    a = HoughtonElement(3, (-2, 0, 2), {(1, 0): (3, 0), (1, 1): (3, 1)})
    b = HoughtonElement(3, (-2, 0, 2), {(1, 0): (1, 0), (1, 1): (3, 1), (1, 2): (3, 0)})
    assert cycle_type(a) == cycle_type(b)
    calls = count_builder_calls(monkeypatch)
    started = time.process_time()
    out = conjugate(a, b)
    assert time.process_time() - started < 0.05
    assert out.reason == ORBIT_SHIFT_MISMATCH
    assert calls == []
    assert brute_force_conjugator(a, b, SearchBudget(5)) is None


def test_conjugate_refuses_swapped_ray_pairs_fast(monkeypatch):
    # a sends 8 points each from ray 4 to 1, 5 to 2 and 6 to 3; b sends them
    # from 5 to 1, 6 to 2 and 4 to 3.  Same translation, cycle type and
    # fixed points, but no orbit of b has the end rays of an orbit of a.
    # An enumeration of the 8^6 residue classes of conjugator translations
    # needs seconds here; the orbit pairing refuses at once
    k = 8
    t = (k, k, k, -k, -k, -k)
    a = HoughtonElement(6, t, {(src, m): (dst, m) for src, dst in ((4, 1), (5, 2), (6, 3)) for m in range(k)})
    b = HoughtonElement(6, t, {(src, m): (dst, m) for src, dst in ((5, 1), (6, 2), (4, 3)) for m in range(k)})
    assert cycle_type(a) == cycle_type(b) and fixed_point_count(a) == fixed_point_count(b)
    calls = count_builder_calls(monkeypatch)
    started = time.process_time()
    out = conjugate(a, b)
    assert time.process_time() - started < 1.0
    assert out.reason == ORBIT_PAIRING_MISMATCH
    assert calls == []


def kept_parts(g):
    """g's kept record and its parts, as the objects they are."""
    data = g._dec
    return [data, data.dec, data.fixed, data.cycle_lengths, data._walks, data._index]


def test_conjugate_decomposes_each_element_once(monkeypatch):
    # a yes walks a and b once each, derives a's ends classes and b's orbit
    # index, builds the conjugator straight from their orbits and cycles at
    # the solved translation and verifies it once: no translation element
    # and no conjugate of b.  a has a finite cycle, so the builder merges
    # both elements' cycles by length
    a = compose(element(3, "g2"), fsym(3, ((3, 5), (3, 6)), ((3, 6), (3, 5))))
    b = conjugate_element(a, element(3, "g3 g2'"))
    walked, derived, built, verified = [], [], [], []
    real_walk, real_verify = orbits._walk, conjugacy.verify
    real_classes, real_index = orbits._ends_classes, orbits._index_orbits
    monkeypatch.setattr(orbits, "_walk", lambda g: walked.append(g) or real_walk(g))
    monkeypatch.setattr(orbits, "_ends_classes", lambda o: derived.append(("classes", o)) or real_classes(o))
    monkeypatch.setattr(orbits, "_index_orbits", lambda t, o: derived.append(("index", o)) or real_index(t, o))
    monkeypatch.setattr(conjugacy, "construct_translation_element", lambda *args: built.append(args))
    monkeypatch.setattr(conjugacy, "verify", lambda *args: verified.append(args) or real_verify(*args))
    out = conjugate(a, b)
    assert out.is_conjugate and out.verified
    assert built == []
    assert len(walked) == 2 and walked[0] is a and walked[1] is b
    assert derived == [("index", b._dec.dec.infinite_orbits), ("classes", a._dec.dec.infinite_orbits)]
    assert verified == [(a, b, out.conjugator)]
    assert a._dec.cycle_lengths and b._dec.cycle_lengths == a._dec.cycle_lengths
    # a second decision on the same objects reads what the first kept on
    # them: it walks nothing and derives nothing, every part the same object
    parts = kept_parts(a), kept_parts(b)
    assert conjugate(a, b) == out
    assert len(walked) == 2 and len(derived) == 2
    assert all(map(operator.is_, kept_parts(a) + kept_parts(b), parts[0] + parts[1]))


def test_conjugate_refuses_on_fixed_point_count(monkeypatch):
    # every ray moves, so fixed points are finite: a has none, b has (2,0)
    a = HoughtonElement(3, (-1, -1, 2), {(1, 0): (3, 1), (2, 0): (3, 0)})
    b = HoughtonElement(3, (-1, -1, 2), {(1, 0): (3, 0), (2, 0): (2, 0), (2, 1): (3, 1)})
    assert cycle_type(a) == cycle_type(b)
    calls = count_builder_calls(monkeypatch)
    assert conjugate(a, b).reason == CYCLE_TYPE_MISMATCH
    assert calls == []


def test_conjugate_raises_where_a_conjugator_must_exist(monkeypatch):
    # every exact combination of orbit shifts has a conjugator (the existence
    # argument of `conjugate`), so a refusal of the forced-value walk there,
    # or shifts that do not sum to 0 while every ray moves, is a fault, never
    # a silent "no"
    a = element(3, "g2 g3")
    b = conjugate_element(a, element(3, "g3 g2'"))
    refuse = lambda *args, **kwargs: ConjugacyOutcome(None, reason=FORCED_MAP_INCONSISTENT)
    with monkeypatch.context() as patch:
        patch.setattr(conjugacy, "_forced_conjugator", refuse)
        with pytest.raises(RuntimeError):
            conjugate(a, b)
    g = generator(2, "g2")
    record = conjugacy._class_record
    moved = lambda part: {ray: v + (ray == 1) for ray, v in part.items()}

    def off_by_one(*args):
        first, read = record(*args)
        return moved(first), [(moved(part), exact) for part, exact in read]

    monkeypatch.setattr(conjugacy, "_class_record", off_by_one)
    with pytest.raises(RuntimeError):
        conjugate(g, g)


def test_conjugate_short_certificate_at_far_offset():
    # an H_4 round trip conjugated by the swap of (2, 0) and (2, S): that
    # 2-entry swap conjugates the pair, and so does the certificate, at
    # every S (with d = 0 on each class's first orbit it had S + 2 entries)
    a = HoughtonElement(4, (-1, 2, -1, 0), {(1, 0): (2, 1), (3, 0): (2, 0)})
    for far in (10**3, 10**9):
        b = conjugate_element(a, fsym(4, ((2, 0), (2, far)), ((2, far), (2, 0))))
        started = time.process_time()
        out = conjugate(a, b)
        assert time.process_time() - started < 0.1
        assert out.is_conjugate and out.verified
        assert len(out.conjugator.exceptions) <= 2


def test_finite_cycle_costs_its_runs():
    # g2 times the swap of (1, N) and (2, N) in H_2: 3 table entries and one
    # finite cycle of 2N + 1 points.  The decomposition, the ends and the
    # decision cost the table, not the cycle's points
    far = 10**6
    g = compose(generator(2, "g2"), fsym(2, ((1, far), (2, far)), ((2, far), (1, far))))
    assert len(g.exceptions) == 3
    for f, args in ((cycle_decomposition, (g,)), (ends_partition, (g,)), (conjugate, (g, g))):
        started = time.process_time()
        f(*args)
        assert time.process_time() - started < 0.1, f.__name__
    d = cycle_decomposition(g)
    (cycle,) = d.finite_cycles
    assert cycle.length == 2 * far + 1 and len(cycle.runs) <= 4
    assert cycle.runs[0][:2] == (1, 0)
    for i in (1, 2):
        for m in [*range(4), *range(far - 3, far + 4)]:
            assert successor(d, (i, m)) == apply(g, (i, m))
    # conjugated by a swap near 10^9, it is still decided at the cost of its table
    h = conjugate_element(g, fsym(2, ((1, 10**9), (2, 10**9 + 5)), ((2, 10**9 + 5), (1, 10**9))))
    started = time.process_time()
    out = conjugate(g, h)
    assert time.process_time() - started < 0.1
    assert out.is_conjugate and out.verified


def test_least_translation_per_class():
    # the k * t that minimises sum |s_i + k t_i|, the k nearest 0 among ties
    least = conjugacy._least_translation
    assert least((1, -1), {1: 7, 2: -7}) == {1: 0, 2: 0}
    assert least((1, -1), {1: 3, 2: 0}) == {1: 3, 2: 0}
    assert least((2, -1, -1), {1: -6, 2: 1, 3: 5}) == {1: 0, 2: -2, 3: 2}
    assert least((3, -3), {1: 2, 2: -2}) == {1: -1, 2: 1}
    for t, part in (((2, -1, -1), {1: 9, 2: -4, 3: -5}), ((1, 2, -3), {1: -11, 2: 4, 3: 7})):
        cost = lambda k: sum(abs(v + k * t[ray - 1]) for ray, v in part.items())
        best = min(range(-30, 31), key=lambda k: (cost(k), abs(k)))
        assert least(t, part) == {ray: v + best * t[ray - 1] for ray, v in part.items()}
    # a seeded sweep of classes of 2 to 5 rays, nonzero t_i summing to 0 and
    # |s_i| up to 10^6: the k returned is a least point of f, and the point
    # next to it towards 0 is not
    rng = random.Random("least translation")
    seen = collections.Counter()
    for _ in range(3000):
        t = [0]
        while not t[-1]:
            t = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 4))]
            t.append(-sum(t))
        big = rng.choice((3, 40, 10**6))
        part = {ray: rng.randint(-big, big) for ray in range(1, len(t) + 1)}
        out = least(t, part)
        k = (out[1] - part[1]) // t[0]
        assert out == {ray: v + k * t[ray - 1] for ray, v in part.items()}
        f = lambda j: sum(abs(v + j * t[ray - 1]) for ray, v in part.items())
        sign = (k > 0) - (k < 0)
        assert f(k) <= f(k - 1) and f(k) <= f(k + 1), (t, part, k)
        assert not sign or f(k - sign) > f(k), (t, part, k)
        seen[sign] += 1
        seen["tie"] += f(k) in (f(k - 1), f(k + 1))
        seen["long"] += abs(k) > 1000
    assert min(seen.values()) >= 100, seen


def test_conjugate_translation_over_walk_limit_exits_2(monkeypatch, capsys, tmp_path):
    # g2 in H_3 against its conjugate by a translation element of t =
    # (D, 0, -D): ray 3 holds the fixed points of both, and g2's centralizer
    # translates only along its orbit, so every conjugator has translation
    # (D + k, -k, -D) for some k and at least D table entries.  Over the walk
    # limit that is refused before any walk, and the CLI exits 2
    d = 50
    a = generator(3, "g2")
    b = conjugate_element(a, construct_translation_element(3, (d, 0, -d)))
    paths = []
    for name, g in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(serialize(g), encoding="utf-8")
        paths.append(str(tmp_path / name))
    calls = count_builder_calls(monkeypatch)
    monkeypatch.setattr(orbits, "_WALK_LIMIT", d - 1)
    assert main(["conj"] + paths) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert calls == []
    monkeypatch.setattr(orbits, "_WALK_LIMIT", d)
    assert main(["conj"] + paths) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["decision"] == "yes" and doc["certificate"]["t"] == [d, 0, -d]
    assert len(calls) == 1


# the pair tables of F_k: t = (2, -2) on rays (1, 2); A1 swaps the two points
# that cross, B1 keeps them in order
A1 = {(2, 0): (1, 1), (2, 1): (1, 0)}
B1 = {(2, 0): (1, 0), (2, 1): (1, 1)}


def f_family(k, b_blocks=1, zero_ray=False):
    """F_k: n = 2k rays with t = (2, -2)^k, a with A1 on every ray pair
    (2j+1, 2j+2) and b the same but with B1 on the first `b_blocks` pairs;
    `zero_ray` appends a ray with t = 0.  Each ends class has two partner
    choices, so there are 2^k combinations of them."""
    t = (2, -2) * k + (0,) * zero_ray

    def build(b_count):
        exc = {}
        for j in range(k):
            table = B1 if j < b_count else A1
            exc.update({(i + 2 * j, m): (i2 + 2 * j, m2) for (i, m), (i2, m2) in table.items()})
        return HoughtonElement(len(t), t, exc)

    return build(0), build(b_blocks)


F_VARIANTS = {
    "one-block": (1, False, ORBIT_PAIRING_MISMATCH),
    "two-block": (2, False, ORBIT_SHIFT_MISMATCH),
    "zero-ray": (1, True, ORBIT_SHIFT_MISMATCH),
}


@pytest.mark.parametrize("variant", sorted(F_VARIANTS))
def test_conjugate_decides_f_family_fast(monkeypatch, capsys, tmp_path, variant):
    # F_30 has 2^30 combinations of partner choices; the decision walks the
    # 30 ends classes once, and the CLI gives the same tag
    b_blocks, zero_ray, reason = F_VARIANTS[variant]
    a, b = f_family(30, b_blocks, zero_ray)
    calls = count_builder_calls(monkeypatch)
    started = time.process_time()
    out = conjugate(a, b)
    assert time.process_time() - started < 1.0
    assert not out.is_conjugate and out.reason == reason
    assert calls == []
    paths = []
    for name, g in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(serialize(g), encoding="utf-8")
        paths.append(str(tmp_path / name))
    assert main(["conj"] + paths) == 0
    assert json.loads(capsys.readouterr().out) == {"decision": "no", "reason": reason}


def many_classes_pair(k):
    """g with t = (1, -1)^k in H_2k, whose table {(2j + 2, 0) -> (2j + 1,
    0)} makes k ends classes of one orbit each, and its conjugate by two
    transpositions of points on rays 1 to 4."""
    g = HoughtonElement(2 * k, (1, -1) * k, {(2 * j + 2, 0): (2 * j + 1, 0) for j in range(k)})
    swap = HoughtonElement(2 * k, (0,) * (2 * k), {(1, 0): (3, 0), (3, 0): (1, 0), (2, 1): (4, 2), (4, 2): (2, 1)})
    return g, conjugate_element(g, swap)


def test_conjugate_decides_many_ends_classes_fast():
    # 4,000 ends classes of one orbit each (n = 8,000): b's orbits are
    # indexed once per decision, not once per class
    g, h = many_classes_pair(4000)
    for b in (g, h):
        started = time.process_time()
        out = conjugate(g, b)
        assert time.process_time() - started < 1.0
        assert out.is_conjugate and out.verified


def test_conjugate_stops_at_the_first_exact_choice():
    # every partner choice of the class is exact, so the decision walks the
    # class once, not once per choice
    g = rotation_family(2000, 1)
    started = time.process_time()
    out = conjugate(g, g)
    assert time.process_time() - started < 0.5
    assert out.is_conjugate and out.verified


def two_class_family(m, rotate, k, turn):
    """t = (m, -m, k, -k) in H_4 with table {(2, j) -> (1, (j + rotate)
    mod m)} and {(4, j) -> (3, (j + turn) mod k)}: the rotation family's
    class of m orbits on rays 1 and 2 beside one of k orbits on rays 3
    and 4, so a refusal combines the sums of two classes mod gcd(m, k)."""
    table = {(2, j): (1, (j + rotate) % m) for j in range(m)}
    table.update({(4, j): (3, (j + turn) % k) for j in range(k)})
    return HoughtonElement(4, (m, -m, k, -k), table)


def class_records(monkeypatch):
    """A list that gets each ends class's record (`_class_record`), as
    the decision builds it, from now on."""
    records = []
    record = conjugacy._class_record
    monkeypatch.setattr(conjugacy, "_class_record", lambda *args: records.append(record(*args)) or records[-1])
    return records


def read_as_needed(record, most):
    """Whether a record's first exact choice is the first exact one it
    read, and it read no choice past that one once it held `most`."""
    first, read = record
    exact = [k for k, (_, flag) in enumerate(read) if flag]
    if not exact:
        return first is None
    return first is read[exact[0]][0] and len(read) <= max(most, exact[0] + 1)


def test_conjugate_reads_each_choice_once(monkeypatch):
    # small members of both families against each other, yes and no: the
    # same outcome as the product enumeration; a decision reads each
    # partner choice at most once (a class has at most one per orbit), and
    # each class's record stops at its first exact choice once it holds
    # the first two, whose sums of s the refusal stage reads
    rotations = []
    for m in range(1, 7):
        a = rotation_family(m, 1)
        rotations += [(a, a), (a, rotation_family(m, 0))]
    two_classes = []
    for m, k in itertools.product(range(1, 9), (2, 3, 4)):
        b = two_class_family(m, 0, k, 0)
        two_classes += [(two_class_family(m, r, k, q), b) for r in range(m) for q in range(k)]
    records = class_records(monkeypatch)
    for pairs in (rotations, two_classes):
        reasons = set()
        for a, b in pairs:
            del records[:]
            out = conjugate(a, b)
            assert len(records) == len(ends_partition(a).classes)
            assert sum(len(read) for _, read in records) <= sum(map(abs, a.t)) // 2
            assert all(read_as_needed(record, 2) for record in records)
            assert out == product_conjugate(a, b)
            reasons.add(out.reason)
        assert reasons == {None, ORBIT_PAIRING_MISMATCH, ORBIT_SHIFT_MISMATCH}


def test_two_class_refusal_reads_two_choices_per_class(monkeypatch):
    # the first class matches itself at each of its 4,000 choices and the
    # second, its two orbits swapped, at none, with gcd(t) = 2: the tag
    # needs only the first two choices of each class, so the record of
    # the first class reads one more choice, one walked orbit, and that of
    # the second reads its two, neither exact
    a, b = two_class_family(4000, 0, 2, 1), two_class_family(4000, 0, 2, 0)
    records = class_records(monkeypatch)
    started = time.process_time()
    out = conjugate(a, b)
    assert time.process_time() - started < 0.5
    assert out.reason == ORBIT_PAIRING_MISMATCH
    assert [(first is None, len(read)) for first, read in records] == [(False, 2), (True, 2)]


def three_ray_family(m, swap):
    """t = (2m, -m, -m) in H_3 with table {(2, j) -> (1, 2j), (3, j) ->
    (1, 2j + 1)}, or with the two images swapped: one ends class of 2m
    orbits over three rays, m over each of its two ray pairs."""
    table = {(2, j): (1, 2 * j + swap) for j in range(m)}
    table.update({(3, j): (1, 2 * j + 1 - swap) for j in range(m)})
    return HoughtonElement(3, (2 * m, -m, -m), table)


def late_yes_pair(m, rotate=1, q=None):
    """A member of the rotation family and its conjugate by the translation
    element of t = (q, -q), q = m - 1 unless given: for m - 1 the class
    has one exact choice, the last of its m choices."""
    a = rotation_family(m, rotate)
    q = m - 1 if q is None else q
    return a, conjugate_element(a, construct_translation_element(2, (q, -q)))


def lifted_pair(far):
    """An H_4 round trip, a = g2 g3' g4 g2 and b = a^(g3 g4' g2), with b
    alone lifted to offset far by `lift`."""
    a = element(4, "g2 g3' g4 g2")
    b = conjugate_element(a, element(4, "g3 g4' g2"))
    return a, conjugate_element(b, lift(4, far, 1 + max(a.max_exception_offset(), b.max_exception_offset())))


SIZES, OFFSETS = (250, 500, 1000), (10**3, 10**6, 10**9, 10**12)
swap = lambda n, p, q: fsym(n, (p, q), (q, p))  # noqa: E731

# family: (builder of the pair (a, b) at a size or an offset, the sizes or
# offsets, the most that one step may multiply the count by, the decision:
# True for a yes, the tag of a no, or False for a no whose tag moves with
# the size)
GROWTH_FAMILIES = {
    "rotation-no": (lambda m: (rotation_family(m, 1), rotation_family(m, 0)), SIZES, 2.3, ORBIT_PAIRING_MISMATCH),
    "multi-rotation-no": (lambda m: (rotation_family(m, 1, 1, 1, 1), rotation_family(m, 1, 1, 1, 0)), SIZES, 2.3,
                          ORBIT_PAIRING_MISMATCH),
    "late-yes": (late_yes_pair, SIZES, 2.3, True),
    "three-ray-no": (lambda m: (three_ray_family(m, 0), three_ray_family(m, 1)), SIZES, 2.3, False),
    "inverted-three-ray-no": (lambda m: tuple(inverse(three_ray_family(m, q)) for q in (0, 1)), SIZES, 2.3, False),
    "two-class-refusal": (lambda m: (two_class_family(m, 0, 2, 1), two_class_family(m, 0, 2, 0)), SIZES, 2.3,
                          ORBIT_PAIRING_MISMATCH),
    "many-classes": (many_classes_pair, SIZES, 2.3, True),
    **{"f-" + name: (lambda k, v=v: f_family(k, *v[:2]), (4, 8, 16), 2.3, v[2]) for name, v in F_VARIANTS.items()},
    "swaps": (lambda far: (swap(3, (1, 0), (2, 0)), swap(3, (1, far), (3, far))), OFFSETS, 1, True),
    "g2": (lambda far: (generator(2, "g2"), conjugate_element(generator(2, "g2"), swap(2, (1, 0), (2, far)))),
           OFFSETS, 1, True),
    "lifted": (lifted_pair, OFFSETS, 1.15, True),
}


@pytest.mark.parametrize("family", sorted(GROWTH_FAMILIES))
def test_work_grows_as_its_family_allows(tool, family):
    """The exact bytecodes of `conjugate` on fresh elements, counted by
    `tools/workcount.py`'s `cold`, on each family of `GROWTH_FAMILIES` as
    it grows: each step multiplies them by at least 1 and at most the
    family's bound, and every pair gets the family's decision.

    Size families take m = 250, 500 and 1,000 (k = 4, 8 and 16 for F_k)
    and may grow x2.3 a step: the expected order is linear.  Decomposing
    the two elements walks their orbits once each, and the forms of a
    class's outgoing rays (`orbits._ray_forms`) take O(m) on each element.
    The class loop then tries the residues of the head's outgoing ray, m
    (2m for the three-ray class, half of which end on the other incoming
    ray and are refused at the first orbit), and each walks one orbit per
    ray pair, one or two.  The two-class refusal reads the first two
    choices of each class, one walked orbit each, and the refusal stage
    adds two sums.  The multi-class rotation, four rotation classes in H_8
    of which b turns the last by one step less, reads each class in O(m)
    as rotation-no reads its one, and counts about 3.6 rotation-no pairs
    at every m.  F_k and the many-classes pair have k classes of two
    orbits or one, each read in O(1), as b's orbits are indexed once per
    decision.  A yes builds and verifies a certificate of O(m) entries.
    So the count about doubles, and x2.3 leaves room for lower-order terms
    but not for a walk of every orbit per choice, which multiplies it by
    4, nor for an orbit index rebuilt per class, O(n k).

    Offset families move out to N = 10^3, 10^6, 10^9 and 10^12.  The walks
    jump from table point to table point, the certificates have as many
    entries at every N, and no step loops over an offset, so the H_3 swap
    of (1, 0) and (2, 0) against that of (1, N) and (3, N), and g2 against
    its conjugate by the swap of (1, 0) and (2, N), count the same at
    every N (bound 1).  The H_4 round trip whose b alone is lifted to N
    grows by at most x1.15 a step: the choice read at d = 0 on the head
    moves b's cutoffs, so its s grows with N, and `_least_translation`
    bisects over [1, max |s_i|], a few more steps for each factor of
    1,000."""
    build, sizes, bound, decision = GROWTH_FAMILIES[family]
    cold, counts = tool("workcount").cold, []
    for size in sizes:
        a, b = build(size)
        counts.append(cold(conjugate, a, b))
        out = conjugate(a, b)
        assert decision in (out.is_conjugate, out.reason), (size, out)
    for small, large in zip(counts, counts[1:]):
        assert small <= large <= bound * small, counts


def permutation_family(images):
    """t = (m, -m) in H_2 with table {(2, j) -> (1, images[j])}: the
    rotation family with any permutation of the images, whose labels
    (`orbits._ray_forms`) may have any period."""
    return HoughtonElement(2, (len(images), -len(images)), {(2, j): (1, image) for j, image in enumerate(images)})


def drawn_table_element(t, rng):
    """The element of translation t whose table sends the points (i, m)
    with m < -t_i onto the points (j, k) with k < t_j, in an order drawn
    by rng."""
    domain = [(i, m) for i, v in enumerate(t, 1) for m in range(-v)]
    images = [(j, k) for j, v in enumerate(t, 1) for k in range(v)]
    return HoughtonElement(len(t), t, zip(domain, rng.sample(images, len(images))))


def family_members(seed):
    """Seeded members of the rotation, permutation, two-class, F_k and
    three-ray families, each pair both ways round.  A permutation is
    paired with its images turned, whose labels are its own turned.  A
    drawn table of H_4 over four rays of 4 or 5 orbits each is paired with
    a conjugate: a class whose ray pairs make a cycle, so the walk meets
    orbits whose two rays it has fixed already."""
    rng = random.Random("class-families:%d" % seed)
    m, k = rng.randint(1, 12), rng.randint(1, 5)
    images = rng.sample(range(m), m)
    turn = rng.randrange(m)
    drawn = drawn_table_element(rng.choice(((4, 4, -4, -4), (5, 5, -5, -5))), rng)
    pairs = [
        (drawn, conjugate_element(drawn, evaluate(random_word(4, seed, 3)))),
        (rotation_family(m, rng.randrange(m)), rotation_family(m, rng.randrange(m))),
        (permutation_family(images), permutation_family(images[turn:] + images[:turn])),
        (permutation_family(images), permutation_family(rng.sample(range(m), m))),
        late_yes_pair(m, rng.randrange(m), rng.randrange(-2 * m, 2 * m)),
        tuple(two_class_family(m, rng.randrange(m), k, rng.randrange(k)) for _ in "ab"),
        f_family(rng.randint(1, 3), rng.randint(0, 3), rng.random() < 0.5),
        (three_ray_family(m, rng.randrange(2)), three_ray_family(m, rng.randrange(2))),
    ]
    pairs.append((inverse(pairs[-1][0]), inverse(pairs[-1][1])))
    return pairs + [(b, a) for a, b in pairs]


def test_class_choices_match_the_walk_of_every_orbit(tool):
    # the choices of each ends class as the decision reads them, in order,
    # against the reference walk of every orbit of the class: every
    # equal-t pair of the three census sweeps, and seeded members of the
    # families.  The counts are a run's: the classes compared, and those
    # with a ray pair of two or more orbits, whose rays' forms are read
    census = tool("census")
    pairs = []
    for sweep in (census.SWEEP, census.SWEEP_H4, census.SWEEP_H4_WIDE):
        by_t = collections.defaultdict(list)
        for g in census.elements(sweep):
            by_t[g.t].append(g)
        pairs += [(a, b) for group in by_t.values() for a in group for b in group]
    for seed in range(60):
        pairs += family_members(seed)
    classes = several = 0
    for a, b in pairs:
        data_a, data_b = orbits._conjugacy_data(a), orbits._conjugacy_data(b)
        index_b = data_b.orbit_index()
        for cls, (walked, rays) in zip(orbits._ends_classes(data_a.dec.infinite_orbits), data_a.class_walks()):
            # with `most` above the count of candidates, the record reads
            # every choice
            every = len(index_b[walked[0].pos_ray]) + 1
            first, got = conjugacy._class_record(a.t, walked, rays, index_b, data_b, every)
            assert got == list(reference_class_shifts(a.t, cls, index_b)), (a, b)
            assert first is next((part for part, exact in got if exact), None)
            classes += 1
            several += len(walked) < len(cls)
    assert (classes, several) == (434_560, 118_558)


def test_work_counts_equal_the_committed_file(tmp_path):
    # `tools/workcount.py --json` in a process of its own, so that nothing
    # earlier tests kept, such as the letter rule's cache, enters a count.
    # On every Python it counts the committed pools and workloads; the
    # counts are exact for one Python version, on which the whole file is
    # compared, and on any other the test skips, naming both versions
    out = tmp_path / "counts.json"
    command = [sys.executable, str(ROOT / "tools" / "workcount.py"), "--json", str(out)]
    subprocess.run(command, check=True, capture_output=True, timeout=300)
    counted = json.loads(out.read_text(encoding="utf-8"))
    committed = json.loads((ROOT / "BENCH_counts.json").read_text(encoding="utf-8"))

    def shape(doc):
        pools = {name: pool["pairs"] for name, pool in doc["pools"].items()}
        return pools, {name: (w["ops"], w["counted_call"]) for name, w in doc["workloads"].items()}

    assert shape(counted) == shape(committed)
    if counted["python"] != committed["python"]:
        pytest.skip("counts are compared on Python %s, not %s" % (committed["python"], counted["python"]))
    assert counted == committed, "counts that moved, committed -> counted:\n" + "\n".join(
        "%s: %r -> %r" % moved for moved in _moved(committed, counted)
    )


def _moved(old, new, path="") -> list:
    """(path, old value, new value) of each leaf that differs between two
    nested dicts, by its path of keys, None where one of them lacks it."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [] if old == new else [(path, old, new)]
    moved = []
    for key in sorted(set(old) | set(new)):
        moved += _moved(old.get(key), new.get(key), "%s/%s" % (path, key) if path else key)
    return moved


def test_yes_never_reaches_the_refusal_stage(monkeypatch):
    # the sums mod gcd(t) are counted only once some class has no exact
    # choice: a yes never runs the refusal stage, an orbit-tag refusal runs
    # it once, and a refusal by translation or cycle type never does
    pairs = list(same_invariant_pairs(CROSS_CHECK_FAMILIES))
    for seed in range(100):
        n = 2 + seed % 3
        a = evaluate(random_word(n, seed, 1 + seed % 8))
        pairs.append((a, conjugate_element(a, evaluate(random_word(n, seed + 500, 1 + seed % 6)))))
        pairs.append((a, evaluate(random_word(n, seed + 1000, 1 + seed % 8))))
    calls = []
    stage = conjugacy._orbit_refusal

    def counted(*args):
        calls.append(args)
        return stage(*args)

    monkeypatch.setattr(conjugacy, "_orbit_refusal", counted)
    yes, reasons = [], collections.Counter()
    for a, b in pairs:
        del calls[:]
        out = conjugate(a, b)
        assert len(calls) == (out.reason in (ORBIT_PAIRING_MISMATCH, ORBIT_SHIFT_MISMATCH)), out.reason
        if out.is_conjugate:
            yes.append((a, b))
        reasons[out.reason] += 1
    assert set(reasons) == {None, TRANSLATION_MISMATCH, CYCLE_TYPE_MISMATCH, ORBIT_PAIRING_MISMATCH, ORBIT_SHIFT_MISMATCH}
    assert len(yes) >= 600, reasons

    def refuse(*args):
        raise AssertionError("a yes reached the refusal stage")

    monkeypatch.setattr(conjugacy, "_orbit_refusal", refuse)
    for a, b in yes:
        for g, h in ((a, b), (fresh(a), fresh(b))):
            assert conjugate(g, h).is_conjugate


@pytest.mark.parametrize(
    "k, b_blocks, zero_ray, radius", [(1, 1, False, 12), (2, 1, False, 6), (2, 2, False, 6), (1, 1, True, 7)]
)
def test_f_family_has_no_short_conjugator(k, b_blocks, zero_ray, radius):
    a, b = f_family(k, b_blocks, zero_ray)
    assert not conjugate(a, b).is_conjugate
    assert brute_force_conjugator(a, b, SearchBudget(radius)) is None


# -- the sparse FSym test against the dense-window reference -------------------------


def dense_fsym_conjugate(a, b):
    """Reference: the FSym test that scans every point up to the largest
    offset.  Its cost grows with the offsets; fsym_conjugate must agree
    with it exactly."""
    if a.t != b.t:
        return ConjugacyOutcome(None, reason=TRANSLATION_MISMATCH)
    if cycle_type(a) != cycle_type(b):
        return ConjugacyOutcome(None, reason=CYCLE_TYPE_MISMATCH)
    return dense_forced_conjugator(a, b, (0,) * a.n)


def dense_forced_conjugator(a, b, s):
    """Reference for the conjugator builder at translation s, for a.t ==
    b.t and equal cycle types: it scans every point of a window past the
    largest offset and |s|, and walks each infinite orbit of a with
    `apply`, point by point, from a far incoming point p with v = p + s_i.
    Its cost grows with the offsets."""
    n = a.n
    shifted = lambda p: (p[0], p[1] + s[p[0] - 1])
    big = max(a.max_exception_offset(), b.max_exception_offset())
    mass = max((abs(v) for v in a.t), default=0)
    stop = big + max(map(abs, s)) + 2 * mass + 2
    window = [(i, m) for i in range(1, n + 1) for m in range(stop + 1)]
    fixes = lambda g, p: p[1] >= 0 and apply(g, p) == p
    # the fixed points of each element that x, or x^-1, does not carry to
    # a fixed point of the other by translation
    only_a = [p for p in window if fixes(a, p) and not fixes(b, shifted(p))]
    only_b = [q for q in window if fixes(b, q) and not fixes(a, (q[0], q[1] - s[q[0] - 1]))]
    if len(only_a) != len(only_b):
        return ConjugacyOutcome(None, reason=SUPPORT_COUNT_MISMATCH)
    dec_a = cycle_decomposition(a)
    dec_b = cycle_decomposition(b)
    mapping = {}
    for orbit in dec_a.infinite_orbits:
        step = -a.t[orbit.neg_ray - 1]
        p = (orbit.neg_ray, stop + ((orbit.neg_residue - stop) % step))
        v = shifted(p)
        while True:
            p = apply(a, p)
            v = apply(b, v)
            if a.t[p[0] - 1] > 0 and p[1] >= stop:
                if v != shifted(p):
                    return ConjugacyOutcome(None, reason=FORCED_MAP_INCONSISTENT)
                break
            mapping[p] = v
    if len(set(mapping.values())) != len(mapping):
        return ConjugacyOutcome(None, reason=FORCED_MAP_INCONSISTENT)
    by_len_a, by_len_b = {}, {}
    for c in dec_a.finite_cycles:
        by_len_a.setdefault(c.length, []).append(c.points)
    for c in dec_b.finite_cycles:
        by_len_b.setdefault(c.length, []).append(c.points)
    for length, cycles_a in by_len_a.items():
        for ca, cb in zip(cycles_a, by_len_b[length]):
            mapping.update(zip(ca, cb))
    mapping.update(zip(only_a, only_b))
    x = HoughtonElement(n, s, {p: q for p, q in mapping.items() if q != shifted(p)})
    return ConjugacyOutcome(x, verified=verify(a, b, x))


def same_invariant_pairs(families=((2, 100, 4), (3, 100, 4), (4, 100, 4))):
    """For each (n, count, size) of `families`: `count` random words of
    length <= 10 in H_n grouped by translation and cycle type; all pairs
    among the first `size` distinct elements of a group."""
    pairs = []
    for n, count, size in families:
        groups = {}
        for k in range(count):
            g = evaluate(random_word(n, 7000 + k, 1 + k % 10))
            group = groups.setdefault((g.t, cycle_type(g)), [])
            if g not in group and len(group) < size:
                group.append(g)
        for group in groups.values():
            pairs.extend(itertools.combinations(group, 2))
    return pairs


# the families of the 1,061 cross-check pairs
CROSS_CHECK_FAMILIES = ((2, 3000, 8), (3, 3000, 4), (4, 300, 4), (5, 200, 4))


def test_fsym_matches_dense_reference():
    pairs = []
    for seed in range(300):
        n = 2 + seed % 3
        a = evaluate(random_word(n, seed, 1 + seed % 10))
        pairs.append((a, conjugate_element(a, evaluate(random_word(n, seed + 1000, 1 + seed % 6)))))
        pairs.append((a, conjugate_element(a, random_element(n, seed + 2000, profile="fsym"))))
        pairs.append((a, evaluate(random_word(n, seed + 3000, 1 + seed % 10))))
        pairs.append((random_element(n, seed, profile="fsym"), random_element(n, seed + 4000, profile="fsym")))
    pairs += same_invariant_pairs()
    assert len(pairs) >= 1000
    reasons = set()
    for a, b in pairs:
        got, want = fsym_conjugate(a, b), dense_fsym_conjugate(a, b)
        assert (got.is_conjugate, got.reason, got.verified) == (want.is_conjugate, want.reason, want.verified)
        if want.is_conjugate:
            assert got.conjugator.t == want.conjugator.t
            assert sorted(got.conjugator.exceptions.items()) == sorted(want.conjugator.exceptions.items())
            assert got.bounds == compute_bounds(a, b)
        reasons.add(want.reason)
    assert reasons == {
        None,
        TRANSLATION_MISMATCH,
        CYCLE_TYPE_MISMATCH,
        SUPPORT_COUNT_MISMATCH,
        FORCED_MAP_INCONSISTENT,
    }


def test_fsym_is_the_builder_at_zero_translation(monkeypatch):
    # fsym_conjugate ends in the builder that `conjugate` uses, at s = 0, so
    # the dense reference above checks that builder at s = 0 too
    a = element(3, "g2 g3' g2")
    b = conjugate_element(a, random_element(3, 5, profile="fsym"))
    calls = count_builder_calls(monkeypatch)
    assert fsym_conjugate(a, b).is_conjugate
    assert [args[:3] for args in calls] == [(a, b, (0, 0, 0))]


def test_builder_matches_dense_reference_at_any_translation():
    # the builder at seeded zero-sum translations s against the reference
    # that walks each orbit point by point: the same answer, tag and
    # certificate table, refusals included, and on a yes the bounds of the
    # reference pairing by outgoing class
    rng = random.Random(22)
    reasons = collections.Counter()
    for a, b in same_invariant_pairs(CROSS_CHECK_FAMILIES):
        dec_a, dec_b = cycle_decomposition(a), cycle_decomposition(b)
        data_a, data_b = orbits._conjugacy_data(a), orbits._conjugacy_data(b)
        for _ in range(3):
            s = [rng.randint(-5, 5) for _ in range(a.n - 1)]
            s = tuple(s + [-sum(s)])
            got = conjugacy._forced_conjugator(a, b, s, data_a, data_b)
            want = dense_forced_conjugator(a, b, s)
            assert (got.is_conjugate, got.reason, got.verified) == (want.is_conjugate, want.reason, want.verified)
            if want.is_conjugate:
                assert sorted(got.conjugator.exceptions.items()) == sorted(want.conjugator.exceptions.items())
                assert got.bounds == reference_bounds(a.t, dec_a, dec_b, s)
            reasons[want.reason] += 1
    assert reasons == {None: 493, SUPPORT_COUNT_MISMATCH: 1061, FORCED_MAP_INCONSISTENT: 1629}


def test_nothing_is_fixed_without_fixed_entries_or_a_still_ray():
    # the builder skips the fixed-point matching when neither element has
    # an entry p -> p and every ray moves: then neither fixes a point, so
    # the points read one by one leave nothing to match either way round.
    # The pairs and translations are those of the dense-reference test
    rng = random.Random(22)
    skipped = 0
    for a, b in same_invariant_pairs(CROSS_CHECK_FAMILIES):
        fixes = [any(p == q for p, q in g.exceptions.items()) for g in (a, b)]
        for g, has_fixed in zip((a, b), fixes):
            assert bool(orbits._conjugacy_data(g).fixed) == has_fixed
        for _ in range(3):
            s = [rng.randint(-5, 5) for _ in range(a.n - 1)]
            s = tuple(s + [-sum(s)])
            if not any(fixes) and 0 not in a.t:
                assert reference_unmatched_fixed(a, b, s) == []
                assert reference_unmatched_fixed(b, a, [-v for v in s]) == []
                skipped += 1
    assert skipped >= 300, skipped


def test_builder_limits_the_certificate(monkeypatch):
    # g2 times a transposition on ray 3, against its conjugate by y: at the
    # translation (d, -d, 0) of y, the certificate sends (2, m) to (1, m)
    # for m < d and moves 3 points of ray 3.  The builder raises
    # WalkLimitError once the table would go over _WALK_LIMIT, and not before
    d = 50
    a = compose(generator(3, "g2"), fsym(3, ((3, 0), (3, 1)), ((3, 1), (3, 0))))
    y = compose(construct_translation_element(3, (d, -d, 0)), fsym(3, ((3, 0), (3, 2)), ((3, 2), (3, 0))))
    b = conjugate_element(a, y)
    args = (a, b, (d, -d, 0), orbits._conjugacy_data(a), orbits._conjugacy_data(b))
    monkeypatch.setattr(orbits, "_WALK_LIMIT", d + 3)
    out = conjugacy._forced_conjugator(*args)
    assert out.is_conjugate and out.verified
    assert len(out.conjugator.exceptions) == d + 3
    monkeypatch.setattr(orbits, "_WALK_LIMIT", d + 2)
    with pytest.raises(WalkLimitError):
        conjugacy._forced_conjugator(*args)


def test_one_walk_limit_moves_every_check(monkeypatch):
    # the elements of the limit tests above, walked at the default limit;
    # then patching orbits._WALK_LIMIT alone lowers the builder's limit,
    # conjugate's pre-check, centralizer_element's and
    # construct_translation_element's, which read it where they compare
    d = 50
    a = compose(generator(3, "g2"), fsym(3, ((3, 0), (3, 1)), ((3, 1), (3, 0))))
    y = compose(construct_translation_element(3, (d, -d, 0)), fsym(3, ((3, 0), (3, 2)), ((3, 2), (3, 0))))
    b = conjugate_element(a, y)
    args = (a, b, (d, -d, 0), orbits._conjugacy_data(a), orbits._conjugacy_data(b))
    g2 = generator(3, "g2")
    far = conjugate_element(g2, construct_translation_element(3, (d, 0, -d)))
    g = long_run(d)
    for h in (g2, far, g):
        cycle_decomposition(h)
    calls = count_builder_calls(monkeypatch)
    monkeypatch.setattr(orbits, "_WALK_LIMIT", d - 1)
    with pytest.raises(WalkLimitError):
        conjugate(g2, far)
    assert calls == []
    with pytest.raises(WalkLimitError):
        conjugacy._forced_conjugator(*args)
    with pytest.raises(WalkLimitError):
        centralizer_element(g, {1, 2})
    with pytest.raises(WalkLimitError):
        construct_translation_element(3, (d, 0, -d))


# -- the orbit-shift solver against the bounded level search it replaced -------------


def level_tuples(steps, level):
    """Zero-sum integer tuples with sum(|s_i|) == level, s_i divisible by
    steps[i], in ascending lexicographic order."""
    n = len(steps)

    def rec(idx, remaining, total, prefix):
        if idx == n - 1:
            last = -total
            if abs(last) == remaining and last % steps[idx] == 0:
                yield tuple(prefix + [last])
            return
        step = steps[idx]
        for s in range(-(remaining // step) * step, remaining + 1, step):
            rest = remaining - abs(s)
            if abs(total + s) <= rest:
                yield from rec(idx + 1, rest, total + s, prefix + [s])

    yield from rec(0, level, 0, [])


def _bezout_combination(values: Sequence[int], target: int) -> Optional[List[int]]:
    """Integers k with sum(k_i * values_i) == target, or None."""
    g = 0
    for v in values:
        g = gcd(g, v)
    if g == 0:
        return [0] * len(values) if target == 0 else None
    if target % g:
        return None
    coeffs = [0] * len(values)
    run = 0  # gcd of the prefix, with known combination in coeffs[:i]
    for i, v in enumerate(values):
        if run == 0:
            coeffs[i] = 1
            run = v
            continue
        new, x, y = _egcd(run, v)
        for j in range(i):
            coeffs[j] *= x
        coeffs[i] = y
        run = new
    scale = target // run
    return [c * scale for c in coeffs]


def _egcd(p: int, q: int) -> Tuple[int, int, int]:
    if q == 0:
        return (p, 1, 0) if p >= 0 else (-p, -1, 0)
    g, x, y = _egcd(q, p % q)
    return g, y, x - (p // q) * y


def _realize_residues(
    n: int, moving: Sequence[int], moduli: Sequence[int], residues: Sequence[int]
) -> Optional[List[int]]:
    """A zero-sum integer tuple congruent to the given residues on the
    moving rays, or None when no such tuple exists."""
    w = [0] * n
    for ray, r in zip(moving, residues):
        w[ray - 1] = r
    deficit = -sum(w)
    if deficit == 0:
        return w
    free = [i for i in range(1, n + 1) if i not in moving]
    if free:
        w[free[0] - 1] = deficit
        return w
    ks = _bezout_combination(list(moduli), deficit)
    if ks is None:
        return None
    for ray, m, k in zip(moving, moduli, ks):
        w[ray - 1] += k * m
    return w


def level_search_conjugator(a, b, max_level):
    """Reference: the search `conjugate` ran before it solved the orbit-shift
    equations.  After the same invariant checks, each residue class whose
    orbits pair up is reduced to conjugators with translation divisible by
    the |t_i(a)|; their translations are tried level by level (total
    translation ascending) up to max_level, each by one finite-support
    test.  A conjugator, or None when none was found up to max_level."""
    data_a = orbits._conjugacy_data(a)
    if (
        a.t != b.t
        or cycle_type(a) != cycle_type(b)
        or fixed_point_count(a) != fixed_point_count(b)
    ):
        return None
    n = a.n
    moving = [i for i in range(1, n + 1) if a.t[i - 1] != 0]
    moduli = [abs(a.t[i - 1]) for i in moving]
    steps = [abs(v) if v != 0 else 1 for v in a.t]
    classes = []
    for residues in itertools.product(*(range(m) for m in moduli)):
        w = _realize_residues(n, moving, moduli, residues)
        if w is None:
            continue
        x_r = construct_translation_element(n, w)
        b_r = conjugate_element(b, inverse(x_r))
        try:
            compute_bounds(a, b_r)
        except ValueError:
            continue
        classes.append((x_r, b_r))
    zero = (0,) * n
    for level in range(0, max_level + 1, 2):
        for x_r, b_r in classes:
            for s in level_tuples(steps, level):
                z = construct_translation_element(n, s)
                c = conjugate_element(b_r, inverse(z))
                # c is a conjugate of b, so the checks above hold for it too
                out = conjugacy._forced_conjugator(a, c, zero, data_a, orbits._conjugacy_data(c))
                if out.is_conjugate:
                    return compose(compose(out.conjugator, z), x_r)
    return None


def reference_bounds(t, dec_a, dec_b, s):
    """Reference for the bounds of a conjugator of translation s: each
    orbit O of a is paired with the orbit O' of b whose outgoing class is
    O's moved by s (the builder pairs by incoming class), and both are
    measured from their cutoffs, those of O' on ray i taken minus s_i."""
    by_pos = {(o.pos_ray, o.pos_residue): o for o in dec_b.infinite_orbits}
    big_k = 0
    for (pos, pos_residue, pos_a, neg, _, neg_a, _, len_a) in dec_a.infinite_orbits:
        up, down = t[pos - 1], -t[neg - 1]
        ob = by_pos[(pos, (pos_residue + s[pos - 1]) % up)]
        pos_b = ob.pos_cutoff - s[pos - 1]
        neg_b = ob.neg_cutoff - s[neg - 1]
        pos_cut = max(pos_a, pos_b)
        neg_cut = max(neg_a, neg_b)
        size_a = len_a + (pos_cut - pos_a) // up + (neg_cut - neg_a) // down
        size_b = ob.spine_len + (pos_cut - pos_b) // up + (neg_cut - neg_b) // down
        big_k = max(big_k, size_a + size_b)
    return BoundData(big_k, max(map(abs, t)))


def reference_class_shifts(t, orbits, index_b):
    """Reference: the choices of one ends class, in the order in which
    `conjugacy._class_record` reads them, made by the generator that the
    decision ran before it walked one orbit per ray pair, verbatim: every
    orbit of the class is walked once per choice, so a class of m orbits
    costs O(m^2).  The decision no longer runs it.

    Every way to pair the orbits of one ends class of a with orbits of b
    residue for residue, as (s, exact): s holds a conjugator's translation
    on the class's rays, solved from the orbit-shift equations of
    `conjugate` with d = 0 on the first orbit, and exact is False when
    those equations give some ray two values of the same residue.  The
    choices are generated lazily, one walk of the class each, in the order
    of b's orbits with the first orbit's end rays: those of its outgoing
    ray in order of residue, where one that ends on another incoming ray
    is refused at once.  `index_b` is b's kept orbit index
    (`_ConjugacyData.orbit_index`).

    A choice seeds s with the head's outgoing s_i at d = 0, the difference
    of the two cutoffs, whose residue looks the chosen orbit up.  Then
    every orbit's partner is looked up, and its d read off, by the
    outgoing ray when its s_i is known, else by the incoming one, known as
    the orbit shares a ray with an earlier one.  A cutoff is congruent to
    its residue, so that d solves the ray's equation exactly, and only the
    other ray, when known too, is compared: a residue clash refuses the
    choice, and a second value makes it inexact."""
    head = orbits[0]
    for first in index_b[head.pos_ray]:
        s: Dict[int, int] = {head.pos_ray: first.pos_cutoff - head.pos_cutoff}
        exact = True
        for oa in orbits:
            pos, neg = oa.pos_ray, oa.neg_ray
            up, down = t[pos - 1], t[neg - 1]
            s_pos, s_neg = s.get(pos), s.get(neg)
            if s_pos is not None:
                ob = index_b[pos][(oa.pos_residue + s_pos) % up]
            else:
                ob = index_b[neg][(oa.neg_residue + s_neg) % -down]
            if ob.pos_ray != pos or ob.neg_ray != neg:
                break
            c_pos = ob.pos_cutoff - oa.pos_cutoff
            c_neg = ob.neg_cutoff - oa.neg_cutoff - down * (oa.spine_len - ob.spine_len)
            if s_pos is not None:
                d = (s_pos - c_pos) // up
            else:
                d = (s_neg - c_neg) // down
            v_pos, v_neg = up * d + c_pos, down * d + c_neg
            if s_pos is None:
                s[pos] = v_pos
            if s_neg is None:
                s[neg] = v_neg
            elif s_neg != v_neg:  # d was read off the outgoing ray
                if (s_neg - v_neg) % down:
                    break
                exact = False
        else:
            yield s, exact


def product_conjugate(a, b):
    """Reference: the decision `conjugate` made before it walked the ends
    classes once.  After the same invariant checks it tries every
    combination of the classes' partner choices, in order, and the first
    whose candidate is conjugate answers; each candidate gets the least
    translation per class and is built by the same forced-value walk.  The
    choices come from `reference_class_shifts`, which walks every orbit of
    the class, not from the package's walk of one orbit per ray pair.  A
    refusal names the furthest stage any combination reached.  Its cost is
    the product of the numbers of choices."""
    if a.t != b.t:
        return ConjugacyOutcome(None, reason=TRANSLATION_MISMATCH)
    dec_a = cycle_decomposition(a)
    dec_b = cycle_decomposition(b)
    if cycle_type(a) != cycle_type(b) or fixed_point_count(a) != fixed_point_count(b):
        return ConjugacyOutcome(None, reason=CYCLE_TYPE_MISMATCH)
    n = a.n
    modulus = gcd(*a.t)
    data_a, data_b = orbits._conjugacy_data(a), orbits._conjugacy_data(b)
    classes = orbits._ends_classes(data_a.dec.infinite_orbits)
    index_b = data_b.orbit_index()
    per_class = [reference_class_shifts(a.t, orbits, index_b) for orbits in classes]
    reason = ORBIT_PAIRING_MISMATCH
    for combination in itertools.product(*per_class):
        s = [0] * n
        for part, _ in combination:
            for ray, value in conjugacy._least_translation(a.t, part).items():
                s[ray - 1] = value
        if 0 not in a.t and sum(s) % modulus:
            continue
        if not all(exact for _, exact in combination):
            if reason == ORBIT_PAIRING_MISMATCH:
                reason = ORBIT_SHIFT_MISMATCH
            continue
        if 0 in a.t:
            s[a.t.index(0)] -= sum(s)
        out = conjugacy._forced_conjugator(a, b, tuple(s), data_a, data_b)
        if out.is_conjugate:
            bounds = reference_bounds(a.t, dec_a, dec_b, s)
            return ConjugacyOutcome(out.conjugator, verified=out.verified, bounds=bounds)
        reason = out.reason
    return ConjugacyOutcome(None, reason=reason)


def test_conjugate_matches_level_search():
    # every yes of the solver is found by the level search (it stops at its
    # first witness, so a high cap costs little); every no is confirmed by
    # the level search up to level 8 and by the word search at radius 8;
    # the decision, certificate and bounds equal those of the product
    # enumeration
    pairs = same_invariant_pairs(CROSS_CHECK_FAMILIES)
    assert len(pairs) >= 1000 and {a.n for a, _ in pairs} == {2, 3, 4, 5}
    reasons = set()
    outcomes = collections.Counter()
    for a, b in pairs:
        out = conjugate(a, b)
        assert out == product_conjugate(a, b)
        outcomes[out.reason] += 1
        if out.is_conjugate:
            assert out.verified and verify(a, b, out.conjugator)
            x = level_search_conjugator(a, b, 128)
            assert x is not None and verify(a, b, x)
        else:
            reasons.add(out.reason)
            assert level_search_conjugator(a, b, 8) is None
            assert brute_force_conjugator(a, b, SearchBudget(8)) is None
    assert reasons == {CYCLE_TYPE_MISMATCH, ORBIT_PAIRING_MISMATCH, ORBIT_SHIFT_MISMATCH}
    # the counts of the residue-class enumeration this solver replaced
    assert outcomes == {None: 504, CYCLE_TYPE_MISMATCH: 114, ORBIT_PAIRING_MISMATCH: 335, ORBIT_SHIFT_MISMATCH: 108}


def fresh(g):
    """A copy of g with no decomposition kept on it."""
    return HoughtonElement(g.n, g.t, g.exceptions)


def outcome_digest(pairs):
    """The reason, verified flag, certificate table and bounds of
    `conjugate` on every pair, as one digest."""
    digest = hashlib.sha256()
    for a, b in pairs:
        out = conjugate(a, b)
        cert = serialize(out.conjugator) if out.is_conjugate else None
        digest.update(("%s|%s|%s|%s\n" % (out.reason, out.verified, cert, out.bounds)).encode())
    return digest.hexdigest()


def test_kept_decompositions_give_the_same_outcomes(tool):
    # cold, every element walked afresh; warm, every element decomposed
    # before the decision, which then reads the kept records, twice over;
    # the pools are the cross-check pairs and the three of
    # `tools/workcount.py`, built from `bench/workloads.py`
    pools = {"cross-check": same_invariant_pairs(CROSS_CHECK_FAMILIES), **tool("workcount").pools()}
    assert [len(pairs) for pairs in pools.values()] == [1061, 400, 105, 20]
    for name, pairs in pools.items():
        cold = [(fresh(a), fresh(b)) for a, b in pairs]
        assert all(getattr(g, "_dec", None) is None for pair in cold for g in pair)
        digest = outcome_digest(cold)
        for a, b in pairs:
            cycle_decomposition(a)
            cycle_decomposition(b)
        assert outcome_digest(pairs) == digest, name
        assert outcome_digest(pairs) == digest, name


def bounds_or_refusal(a, b):
    """compute_bounds(a, b), or the message of its refusal."""
    try:
        return compute_bounds(a, b)
    except ValueError as error:
        return str(error)


def test_results_do_not_depend_on_call_order():
    # the calls that read the decomposition or the data kept beside it, in
    # shuffled orders on one element and its conjugate, give what each gives
    # on elements of its own.  Then each call that gives an element the
    # other role, or both, runs after conjugate(a, b), which derived a's
    # ends classes and b's orbit index only
    rng = random.Random(28)
    calls = {
        "cycle_type": lambda g, h, classes: cycle_type(g),
        "ends_partition": lambda g, h, classes: ends_partition(g),
        "centralizer_element": lambda g, h, classes: [centralizer_element(g, c) for c in classes],
        "fsym_conjugate": lambda g, h, classes: fsym_conjugate(g, h),
        "conjugate": lambda g, h, classes: conjugate(g, h),
        "conjugate(b, a)": lambda g, h, classes: conjugate(h, g),
        "conjugate(a, a)": lambda g, h, classes: conjugate(g, g),
        "compute_bounds(a, b)": lambda g, h, classes: bounds_or_refusal(g, h),
        "compute_bounds(b, a)": lambda g, h, classes: bounds_or_refusal(h, g),
    }
    swapped = ["conjugate(b, a)", "conjugate(a, a)", "compute_bounds(a, b)", "compute_bounds(b, a)"]
    for k in range(40):
        n = 2 + k % 3
        a = evaluate(random_word(n, 500 + k, 1 + k % 10))
        b = conjugate_element(a, random_element(n, 600 + k, profile="fsym" if k % 2 else "word-6"))
        classes = ends_partition(fresh(a)).classes
        want = {name: call(fresh(a), fresh(b), classes) for name, call in calls.items()}
        for _ in range(3):
            order = list(calls)
            rng.shuffle(order)
            g, h = fresh(a), fresh(b)
            for name in order:
                assert calls[name](g, h, classes) == want[name], (k, order, name)
        for name in swapped:
            g, h = fresh(a), fresh(b)
            assert conjugate(g, h) == want["conjugate"]
            assert calls[name](g, h, classes) == want[name], (k, name)


def relabel_rays(g, sigma):
    """g with ray i renamed sigma[i - 1]: an automorphism of H_n, so it
    keeps conjugacy."""
    t = [0] * g.n
    for i, v in enumerate(g.t, 1):
        t[sigma[i - 1] - 1] = v
    exc = {(sigma[i - 1], m): (sigma[j - 1], k) for (i, m), (j, k) in g.exceptions.items()}
    return HoughtonElement(g.n, t, exc)


def decided(out):
    return (out.is_conjugate, out.reason, out.verified)


def assert_relations(a, b, seed):
    """The five relations of a correct decider on the pair (a, b), with
    seeded words u, v and ray permutation sigma: conjugate(b, a),
    conjugate(a^-1, b^-1), conjugate(a^u, b^v) and conjugate(a^sigma,
    b^sigma) decide as conjugate(a, b) does, with the same tag; and when
    a and b are conjugate, the certificate x for (a, b) also conjugates
    a^-1 to b^-1, and with c = b^v, the product of the certificates for
    (a, b) and (b, c) conjugates a to c."""
    out = conjugate(a, b)
    assert decided(conjugate(b, a)) == decided(out), (a, b)
    a_inv, b_inv = inverse(a), inverse(b)
    assert decided(conjugate(a_inv, b_inv)) == decided(out), (a, b)
    u = evaluate(random_word(a.n, seed, 1 + seed % 6))
    v = evaluate(random_word(a.n, seed + 1, 1 + seed % 7))
    assert decided(conjugate(conjugate_element(a, u), conjugate_element(b, v))) == decided(out), (a, b, u, v)
    sigma = list(range(1, a.n + 1))
    random.Random(seed).shuffle(sigma)
    assert decided(conjugate(relabel_rays(a, sigma), relabel_rays(b, sigma))) == decided(out), (a, b, sigma)
    if out.is_conjugate:
        assert verify(a_inv, b_inv, out.conjugator), (a, b)
        c = conjugate_element(b, v)
        onward = conjugate(b, c)
        assert onward.is_conjugate and onward.verified, (b, v)
        assert verify(a, c, compose(out.conjugator, onward.conjugator)), (a, b, v)


def test_relations_hold_on_cross_check_pairs():
    # the pairs of test_conjugate_matches_level_search, with no search: on
    # each, conjugate(b, a), conjugate(a^-1, b^-1), conjugate(a^u, b^v) and
    # the relabelled pair decide as conjugate(a, b) does, tag included, as
    # each stage tests an invariant of conjugacy; and on each yes the
    # certificate also conjugates a^-1 to b^-1, and the product of it and
    # the onward one conjugates a to b^v
    pairs = same_invariant_pairs(CROSS_CHECK_FAMILIES)
    assert len(pairs) == 1061
    for k, (a, b) in enumerate(pairs):
        assert_relations(a, b, seed=9000 + k)


def far_lift_pairs():
    """Twelve cross-check pairs, six conjugate and six not, each conjugated
    by the swap of its low points with points near 10^9."""
    yes, no = [], []
    for a, b in same_invariant_pairs():
        side = yes if conjugate(a, b).is_conjugate else no
        if len(side) < 6:
            y = lift(a.n, 10**9, 1 + max(a.max_exception_offset(), b.max_exception_offset()))
            side.append((conjugate_element(a, y), conjugate_element(b, y)))
        if len(yes) == len(no) == 6:
            return yes + no


@pytest.mark.parametrize("variant", sorted(F_VARIANTS))
@pytest.mark.parametrize("k", [4, 10, 30])
def test_relations_hold_on_f_family(k, variant):
    # 2^k partner choices, far past any brute-force search: the refused
    # pair (a, b), and (a, a) for a yes
    b_blocks, zero_ray, _ = F_VARIANTS[variant]
    a, b = f_family(k, b_blocks, zero_ray)
    assert_relations(a, b, seed=k)
    assert_relations(a, a, seed=k)


@pytest.mark.parametrize("m", [50, 500])
def test_relations_hold_on_rotation_family(m):
    # m orbits in one ends class, against itself and against the rotation
    # by one step less: a yes and a no
    a = rotation_family(m, 1)
    for b in (a, rotation_family(m, 0)):
        assert_relations(a, b, seed=m)


def test_relations_hold_on_far_lifts():
    pairs = far_lift_pairs()
    assert [conjugate(a, b).is_conjugate for a, b in pairs] == [True] * 6 + [False] * 6
    for k, (a, b) in enumerate(pairs):
        assert_relations(a, b, seed=k)


def test_random_pairs_keep_symmetry_and_invariance():
    # b is a random element, or a's conjugate by one
    kinds = ["word-4", "word-8", "fsym"]

    def draw(rng):
        seeds = tuple(rng.randint(0, 10**6) for _ in range(3))
        return rng.randint(2, 4), seeds, (rng.choice(kinds), rng.choice(kinds)), rng.choice((False, True))

    explicit = [(n, (seed,) * 3, (p, p), conjugated)
            for n, seed in ((2, 0), (4, 10**6)) for p in kinds for conjugated in (False, True)]
    for case in explicit + drawn_cases("test_random_pairs_keep_symmetry_and_invariance", 100, draw):
        n, seeds, profiles, conjugated = case
        a = random_element(n, seeds[0], profiles[0])
        b = random_element(n, seeds[1], profiles[1])
        if conjugated:
            b = conjugate_element(a, b)
        out = conjugate(a, b)
        assert decided(conjugate(b, a)) == decided(out), case
        u = evaluate(random_word(n, seeds[2], 1 + seeds[2] % 6))
        v = evaluate(random_word(n, seeds[2] + 1, 1 + seeds[2] % 7))
        assert decided(conjugate(conjugate_element(a, u), conjugate_element(b, v))) == decided(out), case


# -- offsets do not matter --------------------------------------------------------------

FAR_PAIRS = same_invariant_pairs()


def test_far_lift_keeps_decision():
    # conjugating b, or both elements, by one finite-support swap keeps the
    # answer and its tag.  The swap moves every table point up to offsets
    # near 10^9, so the orbits get runs of 10^9 points on moving rays; with
    # b alone lifted, a conjugator of a to b moves every table point of b
    # near 10^9, so the walk must jump from table point to table point and
    # the translation must not follow the offsets
    def draw(rng):
        return rng.randint(0, 10**6), rng.choice((False, True)), rng.randint(0, 10**6), rng.choice((False, True))

    explicit = [(k, roundtrip, k, both) for k in (0, 10**6) for roundtrip in (False, True) for both in (False, True)]
    for case in explicit + drawn_cases("test_far_lift_keeps_decision", 240, draw):
        k, roundtrip, shift, both = case
        if roundtrip:
            n = 2 + k % 3
            a = evaluate(random_word(n, k, 1 + k % 10))
            b = conjugate_element(a, evaluate(random_word(n, k + 1, 1 + k % 8)))
        else:
            a, b = FAR_PAIRS[k % len(FAR_PAIRS)]
        near = conjugate(a, b)
        y = lift(a.n, 10**9 + shift, 1 + max(a.max_exception_offset(), b.max_exception_offset()))
        a_far, b_far = conjugate_element(a, y) if both else a, conjugate_element(b, y)
        started = time.process_time()
        far = conjugate(a_far, b_far)
        assert time.process_time() - started < 0.1, case
        assert (far.is_conjugate, far.reason) == (near.is_conjugate, near.reason), case
        assert far.verified == near.verified, case


# -- pinned outputs -----------------------------------------------------------------------


def pinned_pool():
    """360 seeded pairs (a, a^x) in H_2..H_4, with a and x the elements of
    random words of length 1 to 10."""
    pairs = []
    for k in range(360):
        n = 2 + k % 3
        a = evaluate(random_word(n, k, 1 + k % 10))
        x = evaluate(random_word(n, 1000 + k, 1 + (7 * k) % 10))
        pairs.append((a, conjugate_element(a, x)))
    return pairs


def test_positive_path_is_pinned():
    # the reason, verified flag, serialized certificate and bounds of every
    # decision on the pool, byte for byte: a digest recorded before the
    # records became named tuples and the decision's loops were trimmed
    digest = hashlib.sha256()
    for a, b in pinned_pool():
        out = conjugate(a, b)
        assert out.is_conjugate
        cert = serialize(out.conjugator)
        bounds = (out.bounds.K, out.bounds.M)
        digest.update(("%s|%s|%s|%s\n" % (out.reason, out.verified, cert, bounds)).encode())
    assert digest.hexdigest() == "5e527480dfbdfff0cd2f162c71eec7987bbd05a4c8edeba93cbac5169d5ce229"
