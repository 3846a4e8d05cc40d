import hashlib
import json

import pytest

from houghton import (
    FiniteCycle,
    HoughtonElement,
    InvalidElementError,
    Word,
    apply,
    compose,
    conjugate_element,
    cycle_decomposition,
    cycle_type,
    deserialize,
    ends_partition,
    evaluate,
    fixed_point_count,
    generator,
    identity,
    inverse,
    serialize,
    sym_conjugate,
)
from houghton import core, orbits
from instances import drawn_cases, element, lift, random_element, random_word, successor


def test_identity_has_no_orbits():
    d = cycle_decomposition(identity(3))
    assert d.finite_cycles == ()
    assert d.infinite_orbits == ()


def test_transposition_single_cycle():
    g = HoughtonElement(2, (0, 0), {(1, 0): (2, 0), (2, 0): (1, 0)})
    d = cycle_decomposition(g)
    assert tuple(c.points for c in d.finite_cycles) == (((1, 0), (2, 0)),)
    assert d.infinite_orbits == ()


def test_g2_single_infinite_orbit():
    d = cycle_decomposition(generator(3, "g2"))
    assert d.finite_cycles == ()
    assert len(d.infinite_orbits) == 1
    o = d.infinite_orbits[0]
    assert (o.pos_ray, o.pos_residue) == (1, 0)
    assert (o.neg_ray, o.neg_residue) == (2, 0)
    assert o.spine == ((2, 0), (1, 0))
    assert o.pos_cutoff == 1
    assert o.neg_cutoff == 1


def test_decompositions_of_equal_elements_are_equal_records():
    # the records are named tuples of plain data, compared, hashed and
    # printed field by field
    a, b = element(3, "g2 g3' g2"), element(3, "g2 g3' g2")
    da, db = cycle_decomposition(a), cycle_decomposition(b)
    assert a is not b and da is not db
    assert da._fields == ("n", "t", "finite_cycles", "infinite_orbits")
    assert da == db and not da != db and hash(da) == hash(db)
    assert da != cycle_decomposition(element(3, "g2 g3 g2"))
    assert repr(da) == "CycleDecomposition(n=3, t=(1, -2, 1), finite_cycles=%r, infinite_orbits=%r)" % da[2:]
    assert repr(da.infinite_orbits[0]).startswith("InfiniteOrbit(pos_ray=")


def test_records_are_immutable():
    g = element(3, "g2 g3' g2")
    d = cycle_decomposition(g)
    orbit, ends = d.infinite_orbits[0], ends_partition(g)
    records = [(record, field) for record in (d, orbit, ends) for field in record._fields]
    assert len(records) == 4 + 8 + 1
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_decomposition_is_kept_on_the_element():
    # the walk runs once per element object: every later call returns the
    # same record, the one the element's one kept slot holds, and an equal
    # element built apart walks its own
    assert HoughtonElement.__slots__ == ("n", "t", "exceptions", "_dec")
    g = element(3, "g2 g3' g2")
    assert getattr(g, "_dec", None) is None
    d = cycle_decomposition(g)
    assert cycle_decomposition(g) is d is orbits._conjugacy_data(g).dec and g._dec.dec is d
    h = HoughtonElement(g.n, g.t, g.exceptions)
    assert getattr(h, "_dec", None) is None and cycle_decomposition(h) == d and cycle_decomposition(h) is not d


def test_conjugacy_data_is_kept_part_by_part():
    # the record is made once per element, with its fixed entries and its
    # sorted finite cycle lengths; each role's part is built the first time it
    # is read and then kept, and neither depends on which was read first.
    # g has two infinite orbits in one ends class, and a 3-cycle before two
    # 2-cycles in order of least point
    cycles = ((0, 1), (1, 2), (2, 0), (5, 6), (6, 5), (8, 9), (9, 8))
    f = HoughtonElement(3, (0, 0, 0), {(3, m): (3, k) for m, k in cycles})
    g = compose(element(3, "g2 g2"), f)
    assert getattr(g, "_dec", None) is None
    data = orbits._conjugacy_data(g)
    assert orbits._conjugacy_data(g) is data is g._dec and data.dec is cycle_decomposition(g)
    o1, o2 = data.dec.infinite_orbits
    c3, c2, c2_later = data.dec.finite_cycles
    assert c3.length == 3 and c2.length == c2_later.length == 2
    assert data.fixed == () and data.cycle_lengths == (2, 2, 3)
    assert (data.cycle_lengths, 2) == cycle_type(g)
    assert data._walks is data._index is None
    # the class's one ray pair walks its first orbit, and the form of its
    # outgoing ray stands for the other
    form = orbits._ray_forms(g.t, (o1, o2))[o1.pos_ray]
    want = ((((o1,), ((o1.pos_ray, form),)),), [(), [o1, o2], [o2, o1], ()])
    for k in range(2):
        other = orbits._conjugacy_data(HoughtonElement(g.n, g.t, g.exceptions))
        parts = (other.class_walks, other.orbit_index)
        built = parts[k]()
        assert (other._walks, other._index)[1 - k] is None
        assert parts[k]() is built
        assert tuple(part() for part in parts) == want
        assert all(part() is kept for part, kept in zip(parts, (other._walks, other._index)))


def test_fixed_entries_are_kept_on_the_record():
    # the record's fixed points are g's entries p -> p in table order, none
    # on a ray with t_i = 0, where minimality refuses them, and when every
    # ray moves they are all of g's fixed points.  The pool, and seeded
    # elements in H_2..H_4 alone and times a random finite permutation
    extra = []
    for n in (2, 3, 4):
        for seed in range(150):
            g, f = random_element(n, seed, "word-6"), random_element(n, seed, "fsym")
            extra += [g, f, compose(g, f), compose(f, g)]
    with_fixed = 0
    for g in decomposition_pool() + extra:
        fixed = orbits._conjugacy_data(g).fixed
        assert fixed == tuple(p for p, q in g.exceptions.items() if p == q)
        assert all(g.t[i - 1] for i, _ in fixed)
        if 0 not in g.t:
            assert len(fixed) == fixed_point_count(g)
            with_fixed += bool(fixed)
    assert with_fixed >= 500, with_fixed


def decomposed(g):
    """g, with its record and both role parts kept."""
    data = orbits._conjugacy_data(g)
    data.class_walks(), data.orbit_index()
    return g


# every way to get a new element, each from elements that already keep a
# decomposition and its conjugacy data where it takes any
NEW_ELEMENTS = {
    "constructor": lambda: HoughtonElement(3, (1, -1, 0), {(2, 0): (1, 0), (3, 0): (3, 1), (3, 1): (3, 0)}),
    "deserialize": lambda: deserialize(serialize(decomposed(element(3, "g2 g3'")))),
    "compose": lambda: compose(decomposed(element(3, "g2")), decomposed(element(3, "g3'"))),
    "inverse": lambda: inverse(decomposed(element(3, "g2 g3' g2"))),
    "conjugate_element": lambda: conjugate_element(decomposed(element(3, "g2 g3")), decomposed(element(3, "g3"))),
    "evaluate": lambda: element(3, "g2 g3' g2"),
    "generator": lambda: generator(3, "g2"),
    "identity": lambda: identity(3),
}


@pytest.mark.parametrize("build", NEW_ELEMENTS.values(), ids=NEW_ELEMENTS.keys())
def test_new_elements_keep_no_decomposition(build):
    g = build()
    assert getattr(g, "_dec", None) is None
    assert orbits._walk(g) == (cycle_decomposition(g), g._dec.fixed)


def test_successor_reads_runs_of_a_far_spine():
    # g2 in H_2 conjugated by the swap of its low points with points at
    # 10^8: a spine of 200,000,006 points in 8 runs, past the walk limit.
    # successor finds a point in its run, not in the spine point by point
    far = 10**8
    g = conjugate_element(generator(2, "g2"), lift(2, far, 2))
    d = cycle_decomposition(g)
    (orbit,) = d.infinite_orbits
    assert (orbit.spine_len, len(orbit.runs)) == (2 * far + 6, 8)
    assert successor(d, (1, 5)) == apply(g, (1, 5)) == (1, 6)
    for i in (1, 2):
        for m in [*range(6), *range(far - 3, far + 6)]:
            assert successor(d, (i, m)) == apply(g, (i, m))


def test_successor_refuses_points_off_the_ray_set():
    # as apply does, whatever orbit the point would be looked up in
    g = generator(2, "g2")
    d = cycle_decomposition(g)
    for p in [(3, 0), (0, 0), (1, -1), (2, -5)]:
        with pytest.raises(InvalidElementError):
            apply(g, p)
        with pytest.raises(InvalidElementError):
            successor(d, p)


def test_finite_cycles_are_runs_from_their_least_point():
    # each cycle's runs list it from its least point, as the element moves
    # it, and its length counts them; a run that ends at the least point
    # with a negative step is split before that point
    split = cycles = 0
    for g in decomposition_pool():
        for c in cycle_decomposition(g).finite_cycles:
            cycles += 1
            points = c.points
            assert isinstance(c, FiniteCycle) and c.length == len(points) >= 2
            assert points[0] == min(points) == c.runs[0][:2]
            assert [apply(g, p) for p in points] == list(points[1:] + points[:1])
            assert all(count >= 1 and step == g.t[ray - 1] for ray, _, step, count in c.runs)
            last = c.runs[-1]
            split += last[0] == points[0][0] and last[2] < 0 and last[1] + last[3] * last[2] == points[0][1]
    assert (split, cycles) == (210, 935)


def test_finite_cycle_points_obey_the_walk_limit(monkeypatch):
    # the record holds 2 runs, but listing its 2N + 1 points is refused
    far = 60
    swap = HoughtonElement(2, (0, 0), {(1, far): (2, far), (2, far): (1, far)})
    (cycle,) = cycle_decomposition(compose(generator(2, "g2"), swap)).finite_cycles
    assert cycle == FiniteCycle(((1, 0, 1, far), (2, far, -1, far + 1)), 2 * far + 1)
    monkeypatch.setattr(orbits, "_WALK_LIMIT", 2 * far)
    with pytest.raises(orbits.WalkLimitError):
        cycle.points


def test_finite_cycles_are_disjoint_and_minimal_rotated():
    for seed in range(30):
        g = random_element(3, seed, profile="fsym")
        d = cycle_decomposition(g)
        seen = set()
        for cycle in (c.points for c in d.finite_cycles):
            assert len(cycle) >= 2
            assert cycle[0] == min(cycle)
            for p in cycle:
                assert p not in seen
                seen.add(p)
        # every exceptional point of a zero-translation element is in a cycle
        assert seen == set(g.exceptions)


def test_infinite_tails_are_stable():
    # beyond the cutoffs the element acts by pure translation on the class
    for seed in range(20):
        g = evaluate(random_word(3, seed, 9))
        for o in cycle_decomposition(g).infinite_orbits:
            up = g.t[o.pos_ray - 1]
            down = g.t[o.neg_ray - 1]
            for k in range(6):
                m = o.pos_cutoff + k * up
                assert apply(g, (o.pos_ray, m)) == (o.pos_ray, m + up)
                m = o.neg_cutoff + (k + 1) * -down
                assert apply(g, (o.neg_ray, m)) == (o.neg_ray, m + down)


def test_decomposition_walks_each_orbit_once(monkeypatch):
    # the round trip of g2^2 s g2^-1 s moved up to offset 1000 by a swap of
    # the low and high points: a spine of about 2,000 points in 8 runs with
    # 9 exceptions on it.  A walk that visits each orbit once seeks the
    # next table point of a class at most once per run
    g = conjugate_element(evaluate(Word.parse(2, "g2 g2 s g2' s")), lift(2, 1000, 4))
    seeks = []
    real = orbits._next_domain
    monkeypatch.setattr(orbits, "_next_domain", lambda *args: seeks.append(args) or real(*args))
    d = cycle_decomposition(g)
    (orbit,) = d.infinite_orbits
    assert len(orbit.spine) > 2000 and len(g.exceptions) == 9 and d.finite_cycles == ()
    assert len(seeks) <= len(orbit.runs)


def test_walk_refuses_an_outgoing_class_claimed_twice():
    # a table the constructor refuses, as (1, 1) has no preimage: both
    # entries leave by the class of (1, 0) mod 2, so two walks end in it
    exceptions = {(2, 0): (1, 0), (2, 1): (1, 2)}
    with pytest.raises(InvalidElementError):
        HoughtonElement(2, (2, -2), exceptions)
    with pytest.raises(RuntimeError, match="claimed twice"):
        orbits._walk(core._make(2, (2, -2), exceptions))


def decomposition_pool():
    """3,518 elements: the elements of random words in H_2..H_5, alone and
    times a random finite permutation; random words in H_2..H_4 conjugated
    by a swap of their low points with points at offsets 10^3..10^8; and
    the rotation family t = (m, -m), {(2, j) -> (1, (j + r) mod m)}."""
    pool = []
    for n in range(2, 6):
        for seed in range(400):
            g = evaluate(random_word(n, seed, 1 + seed % 14))
            pool += [g, compose(g, random_element(n, seed, "fsym"))]
    for n in range(2, 5):
        for seed in range(100):
            pool.append(conjugate_element(evaluate(random_word(n, seed, 8)), lift(n, 10 ** (3 + seed % 6), 5)))
    for m in (1, 2, 3, 7, 50, 500):
        for r in (0, 1, 3):
            pool.append(HoughtonElement(2, (m, -m), {(2, j): (1, (j + r) % m) for j in range(m)}))
    return pool


def test_documents_and_constructor_build_the_pool_alike():
    # the document of each element, read back and given to the constructor
    # as its JSON fields, gives an equal element both ways
    for g in decomposition_pool():
        text = serialize(g)
        data = json.loads(text)
        assert deserialize(text) == HoughtonElement(data["n"], data["t"], data["exceptions"]) == g


def old_form(d):
    """The decomposition with each finite cycle as the tuple of its points,
    the form in which the pinned digest was recorded."""
    return d._replace(finite_cycles=tuple(c.points for c in d.finite_cycles))


def test_decomposition_is_pinned():
    # the repr of every decomposition of the pool, byte for byte: cycles,
    # orbit order, cutoffs and runs.  The digest was recorded with the
    # decomposition that walked each infinite orbit back from its outgoing
    # tail and listed each finite cycle point by point
    pool = decomposition_pool()
    assert len(pool) == 3518
    digest = hashlib.sha256("".join(repr(old_form(cycle_decomposition(g))) for g in pool).encode())
    assert digest.hexdigest() == "202085b6499755acd1d3f4de00cfdd139beee0e985187b81c5792669c456d613"


def reference_cutoffs(g):
    """The cutoff of every moving residue class: the top table offset of
    the class over the domain and the range, plus |t_i|.  The table meets
    every such class: the lowest point of a class is hit by no tail when
    t_i > 0, so it is in the range, and has no tail image when t_i < 0, so
    it is in the domain."""
    top = {}
    for p, q in g.exceptions.items():
        for i, m in (p, q):
            step = abs(g.t[i - 1])
            if step:
                key = (i, m % step)
                top[key] = max(top.get(key, m), m)
    return {(i, r): m + abs(g.t[i - 1]) for (i, r), m in top.items()}


def assert_cutoffs_match_reference(g, case=None):
    # both cutoffs of every orbit are its classes' tops plus |t_i|, and its
    # last run is the one point where the walk leaves the table; a failure
    # names the case that built g
    cutoffs = reference_cutoffs(g)
    for o in cycle_decomposition(g).infinite_orbits:
        up = g.t[o.pos_ray - 1]
        assert o.pos_cutoff == cutoffs[(o.pos_ray, o.pos_residue)], case
        assert o.neg_cutoff == cutoffs[(o.neg_ray, o.neg_residue)], case
        assert o.runs[-1] == (o.pos_ray, o.pos_cutoff - up, up, 1), case


def test_cutoffs_match_class_tops():
    for g in decomposition_pool():
        assert_cutoffs_match_reference(g)


def test_cutoffs_match_class_tops_on_random_elements():
    # random words times a random finite permutation, some of them moved
    # to far offsets by a swap of their low points
    fars = [0, 10**2, 10**6, 10**12]

    def draw(rng):
        return rng.randint(2, 5), rng.randint(0, 10**6), rng.randint(1, 14), rng.choice(fars)

    explicit = [(2, 0, 1, far) for far in fars] + [(5, 10**6, 14, far) for far in fars]
    for case in explicit + drawn_cases("test_cutoffs_match_class_tops_on_random_elements", 150, draw):
        n, seed, length, far = case
        g = compose(evaluate(random_word(n, seed, length)), random_element(n, seed, "fsym"))
        if far:
            width = 1 + g.max_exception_offset()
            assert width < far, case
            g = conjugate_element(g, lift(n, far, width))
        assert_cutoffs_match_reference(g, case)


def test_decomposition_matches_action_with_cycles_on_orbit_rays():
    # finite cycles interleaved with infinite orbits on the same moving
    # rays: each cycle and each orbit, from its incoming tail through its
    # spine to its outgoing tail, follows the element, and successor
    # reproduces the action on a window past the table
    checked = 0
    for n in (2, 3):
        for seed in range(40):
            g = compose(evaluate(random_word(n, seed, 8)), random_element(n, seed, profile="fsym"))
            d = cycle_decomposition(g)
            rays = {ray for o in d.infinite_orbits for ray in (o.pos_ray, o.neg_ray)}
            if not any(p[0] in rays for c in d.finite_cycles for p in c.points):
                continue
            checked += 1
            for cycle in (c.points for c in d.finite_cycles):
                assert [apply(g, p) for p in cycle] == list(cycle[1:] + cycle[:1])
            for o in d.infinite_orbits:
                path = [(o.neg_ray, o.neg_cutoff), *o.spine, (o.pos_ray, o.pos_cutoff)]
                assert [apply(g, p) for p in path[:-1]] == path[1:]
            top = g.max_exception_offset() + 6
            for i in range(1, n + 1):
                for m in range(top + 1):
                    assert successor(d, (i, m)) == apply(g, (i, m))
    assert checked >= 10


def test_cycle_type_examples():
    two = HoughtonElement(2, (0, 0), {(1, 0): (1, 1), (1, 1): (1, 0)})
    three = HoughtonElement(
        2, (0, 0), {(1, 0): (1, 1), (1, 1): (1, 2), (1, 2): (1, 0)}
    )
    assert cycle_type(two) == ((2,), 0)
    assert cycle_type(three) == ((3,), 0)
    assert cycle_type(generator(3, "g2")) == ((), 1)


def test_cycle_type_is_conjugation_invariant():
    for seed in range(20):
        g = evaluate(random_word(3, seed, 6))
        x = evaluate(random_word(3, seed + 100, 5))
        conj = compose(compose(inverse(x), g), x)
        assert cycle_type(conj) == cycle_type(g)


def test_sym_conjugate_is_cycle_type_equality():
    a = HoughtonElement(2, (0, 0), {(1, 0): (2, 0), (2, 0): (1, 0)})
    b = HoughtonElement(2, (0, 0), {(1, 3): (1, 4), (1, 4): (1, 3)})
    c = HoughtonElement(
        2, (0, 0), {(1, 0): (1, 1), (1, 1): (1, 2), (1, 2): (1, 0)}
    )
    assert sym_conjugate(a, b)
    assert not sym_conjugate(a, c)


def test_fixed_point_count():
    assert fixed_point_count(generator(3, "g2")) is None  # ray 3 is fixed
    assert fixed_point_count(element(2, "g2")) == 0
    swap = HoughtonElement(2, (1, -1), {(2, 0): (1, 1), (1, 0): (1, 0)})
    assert fixed_point_count(swap) == 1


def test_sym_conjugate_compares_fixed_points():
    # every ray moves: a fixes nothing, b fixes (2,0); the cycle types agree
    a = HoughtonElement(3, (-1, -1, 2), {(1, 0): (3, 1), (2, 0): (3, 0)})
    b = HoughtonElement(3, (-1, -1, 2), {(1, 0): (3, 0), (2, 0): (2, 0), (2, 1): (3, 1)})
    assert cycle_type(a) == cycle_type(b)
    assert (fixed_point_count(a), fixed_point_count(b)) == (0, 1)
    assert not sym_conjugate(a, b)


def test_ends_partition_single_class():
    parts = ends_partition(element(3, "g2 g3"))
    assert parts.classes == (frozenset({1, 2, 3}),)


def test_ends_partition_skips_fixed_rays():
    parts = ends_partition(generator(4, "g2"))
    assert parts.classes == (frozenset({1, 2}),)


def test_ends_partition_identity_empty():
    assert ends_partition(identity(3)).classes == ()


def test_ends_classes_cover_moving_rays():
    for seed in range(30):
        g = evaluate(random_word(4, seed, 10))
        parts = ends_partition(g)
        covered = set().union(*parts.classes) if parts.classes else set()
        assert covered == {i for i in range(1, 5) if g.t[i - 1] != 0}


def test_ends_classes_contract():
    # the classes partition the orbits into sets with disjoint rays, each
    # class starts at its lowest-index orbit, the heads come in increasing
    # index, and every later orbit of a class shares a ray with an earlier
    # one
    for g in decomposition_pool():
        found = cycle_decomposition(g).infinite_orbits
        classes = orbits._ends_classes(found)
        assert sorted(o for cls in classes for o in cls) == sorted(found)
        rays = [orbits._class_rays(cls) for cls in classes]
        assert sum(map(len, rays)) == len(set().union(*rays))
        heads = [found.index(cls[0]) for cls in classes]
        assert heads == sorted(set(heads))
        for cls, head in zip(classes, heads):
            assert head == min(found.index(o) for o in cls)
            for k in range(1, len(cls)):
                assert {cls[k].pos_ray, cls[k].neg_ray} & orbits._class_rays(cls[:k])
