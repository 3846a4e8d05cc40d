"""Cycle and orbit analysis for elements of H_n.

Every orbit is stored as maximal runs (ray, start, step, count):
stretches of the orbit on one ray along which the element translates by
step.  A run ends at a table point, so an orbit has at most one run more
than the table has entries, whatever its number of points.  A finite cycle
is its runs from its least point, and its length.  An infinite orbit is,
up to finitely many points, the union of two arithmetic progressions: an
outgoing one on a ray with positive translation and an incoming one on a
ray with negative translation.  It is stored as those two residue classes,
the minimal offsets from which each is stable (no exception of the element
at or beyond the cutoff within the class), and its spine in between.

`cycle_decomposition` walks every orbit forward by one step rule, in one
loop: a run starts at a point of the table's range, or at the top spine
point of an incoming class, and ends at the first domain point of its
class in the direction of translation, whose image starts the next run.
The walks jump from one table point of a residue class to the next, so
their cost follows the exception table, not the offsets.  Each infinite
orbit is walked once, from its incoming tail to its outgoing one, and its
cutoffs are read off its two ends: the top domain point of the incoming
class, where the walk starts, and the point where the walk leaves the
table.  The finite cycles are then walked from the range points left
over, each until it is back at its start, so no finite-cycle walk enters
an infinite orbit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import groupby
from operator import attrgetter, eq
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .core import HoughtonElement, Point, _check_same_n

# the most points a walk may list, or a built table may hold
_WALK_LIMIT = 10_000_000

Run = Tuple[int, int, int, int]  # (ray, start offset, step, count)
_LENGTH = attrgetter("length")  # of a finite cycle


class WalkLimitError(ValueError):
    """A walk along the orbits of an element, or a conjugator's table, went
    over its limit."""


def run_points(runs: Iterable[Run]) -> Iterator[Point]:
    """The points of runs, in order."""
    for ray, start, step, count in runs:
        for k in range(count):
            yield (ray, start + k * step)


class InfiniteOrbit(NamedTuple):
    pos_ray: int
    pos_residue: int
    pos_cutoff: int
    neg_ray: int
    neg_residue: int
    neg_cutoff: int
    runs: Tuple[Run, ...]  # the spine in orbit order, excluded from both stable tails
    spine_len: int

    @property
    def spine(self) -> Tuple[Point, ...]:
        """The spine point by point, up to the limit of an orbit walk."""
        return _listed(self.runs, self.spine_len)


class FiniteCycle(NamedTuple):
    runs: Tuple[Run, ...]  # the cycle in order, from its least point
    length: int

    @property
    def points(self) -> Tuple[Point, ...]:
        """The cycle point by point, up to the limit of an orbit walk."""
        return _listed(self.runs, self.length)


class CycleDecomposition(NamedTuple):
    n: int
    t: Tuple[int, ...]
    finite_cycles: Tuple[FiniteCycle, ...]
    infinite_orbits: Tuple[InfiniteOrbit, ...]


class EndsPartition(NamedTuple):
    classes: Tuple[FrozenSet[int], ...]


def _listed(runs: Iterable[Run], count: int) -> Tuple[Point, ...]:
    """The `count` points of `runs` as a tuple, refused when they are more
    than the limit of a walk, which the error names as it is when raised."""
    if count > _WALK_LIMIT:
        raise WalkLimitError("an orbit walk would take more than %d steps" % _WALK_LIMIT)
    return tuple(run_points(runs))


def _next_domain(index: Dict[Tuple[int, int], List[int]], i: int, m: int, step: int) -> Optional[int]:
    """The first offset of a domain point met from (i, m) on, m included,
    going by step along the class of m; None when there is none.  `index`
    holds the sorted domain offsets of each class, keyed as `_walk` keys
    them."""
    offsets = index.get((i, m % step), ())
    if step > 0:
        k = bisect_left(offsets, m)
        return offsets[k] if k < len(offsets) else None
    k = bisect_right(offsets, m)
    return offsets[k - 1] if k else None


def _from_least(runs: List[Run], length: int) -> FiniteCycle:
    """A finite cycle from the runs of its walk, in order from its least
    point.  In a run that point is the first, or the last when the step is
    negative; such a run is split before its last point."""
    lows = [(ray, m + (count - 1) * step if step < 0 else m) for ray, m, step, count in runs]
    k = lows.index(min(lows))
    ray, m, step, count = runs[k]
    if step < 0 and count > 1:
        runs[k : k + 1] = [(ray, m, step, count - 1), (ray, lows[k][1], step, 1)]
        k += 1
    return FiniteCycle(tuple(runs[k:] + runs[:k]), length)


def cycle_decomposition(g: HoughtonElement) -> CycleDecomposition:
    """The finite cycles of g, each from its least point, in order of that
    point, and its infinite orbits, in order of outgoing ray and residue.

    g is walked once, and every later call returns the same record, kept
    on g with its conjugacy data (`_ConjugacyData`).  It is a tuple of
    tuples, so no caller can change it."""
    return _conjugacy_data(g).dec


# index[ray][residue] is the orbit (an `InfiniteOrbit`) with that outgoing
# or incoming class.  The alias names no class of this module: the typing
# module caches it for the process, and would keep the module alive after
# a re-import
_OrbitIndex = List[Sequence[tuple]]


class _ConjugacyData:
    """All that is kept of one element g, in its one slot `_dec`: made by
    `_conjugacy_data` the first time any of it is read, and freed with g.
    g never changes, so none of it goes stale; an element that is never
    decomposed keeps nothing.

    Three fields come of the one walk of g (`_walk`).  `dec` is g's
    decomposition: O(runs) ints, and every run but the last of an
    infinite orbit ends at its own table point, so there are at most as
    many runs as table entries and infinite orbits together.  `fixed`
    holds the points of g's entries p -> p in table order, the walks of
    one point that `dec` leaves out: a reference each to a table point.
    `cycle_lengths` holds the sorted finite cycle lengths, an int each:
    the cycle type but for the orbit count, which the translation fixes,
    so two elements of equal translation have equal cycle types exactly
    when these agree.  Most decisions read an element in one role only,
    so the part of each role is built by its method on first read and
    kept: the walks of its ends classes where g plays a, the orbit index
    where it plays b, and the forms of its outgoing rays where it
    plays either in a class with two orbits over one pair of rays, each
    O(infinite orbits + n)."""

    __slots__ = ("dec", "fixed", "cycle_lengths", "_walks", "_index", "_forms")

    def __init__(self, dec: CycleDecomposition, fixed: Tuple[Point, ...]):
        self.dec, self.fixed = dec, fixed
        self.cycle_lengths = tuple(sorted(map(_LENGTH, dec.finite_cycles)))
        self._walks = self._index = self._forms = None

    def class_walks(self) -> Tuple[Tuple[Tuple[InfiniteOrbit, ...], Tuple[Tuple[int, tuple], ...]], ...]:
        """For each ends class (`_ends_classes`), what `conjugacy._class_record`
        walks: the first orbit of each of its pairs of end rays, in class
        order, and (ray, form) for each outgoing ray of the class that has
        a form (`_ray_forms`).  Read where the element plays a."""
        if self._walks is None:
            walks = []
            for cls in _ends_classes(self.dec.infinite_orbits):
                pairs: Dict[Tuple[int, int], InfiniteOrbit] = {}
                for o in cls:
                    pairs.setdefault((o.pos_ray, o.neg_ray), o)
                rays = {o.pos_ray for o in pairs.values()} if len(pairs) < len(cls) else ()
                walks.append((tuple(pairs.values()), tuple((ray, form) for ray in rays if (form := self.forms()[ray]))))
            self._walks = tuple(walks)
        return self._walks

    def orbit_index(self) -> _OrbitIndex:
        """The infinite orbits by `_index_orbits`: read where the element
        plays b."""
        if self._index is None:
            self._index = _index_orbits(self.dec.t, self.dec.infinite_orbits)
        return self._index

    def forms(self) -> List[Optional[tuple]]:
        """The forms of the outgoing rays by `_ray_forms`: read where the
        element plays a or b in a class with a pair of end rays of two or
        more orbits."""
        if self._forms is None:
            self._forms = _ray_forms(self.dec.t, self.dec.infinite_orbits)
        return self._forms


def _conjugacy_data(g: HoughtonElement) -> _ConjugacyData:
    """The record kept on g, made on first use."""
    data = getattr(g, "_dec", None)
    if data is None:
        data = g._dec = _ConjugacyData(*_walk(g))
    return data


def _index_orbits(t: Tuple[int, ...], orbits: Sequence[InfiniteOrbit]) -> _OrbitIndex:
    """The infinite orbits of an element of translation t by residue class:
    index[i][r] is the orbit whose outgoing or incoming class on ray i is
    that of r mod |t_i|.  A moving ray is outgoing or incoming, never
    both, and each of its |t_i| classes is the tail of one orbit, so one
    table holds both classes of every orbit and has no gaps.  An outgoing
    ray lists its orbits in order of residue, as `orbits` does."""
    index: _OrbitIndex = [[None] * abs(step) if step else () for step in (0,) + t]
    for o in orbits:
        index[o.pos_ray][o.pos_residue] = index[o.neg_ray][o.neg_residue] = o
    return index


def _least_rotation(labels: List[tuple]) -> Tuple[tuple, int, int]:
    """(c, k, p) for a cyclic sequence: c its least rotation, which starts
    at labels[k], and p its least period, the least p > 0 by which it
    rotates onto itself.  The two-pointer scan: i < j are two starts still
    in the running, and every other start below j is out.  Their rotations
    are compared label by label from k on; at the first difference the
    start with the greater label goes with the k starts after it, as each
    of them begins a rotation greater than the one as far after the other
    start.  When k reaches the length, the rotations at i and j are equal,
    and each start between them begins a greater one, so j - i is the
    least period."""
    n, doubled, i, j, k = len(labels), labels + labels, 0, 1, 0
    while j < n and k < n:
        x, y = doubled[i + k], doubled[j + k]
        if x == y:
            k += 1
        elif x < y:
            j, k = j + k + 1, 0
        else:  # i goes, and i + k + 1 may pass j
            i, j, k = min(i + k + 1, j), max(i + k + 1, j) + (i + k + 1 == j), 0
    return tuple(doubled[i : i + n]), i, (j - i if k == n else n)


def _ray_forms(t: Tuple[int, ...], orbits: Sequence[InfiniteOrbit]) -> List[Optional[tuple]]:
    """forms[i] for each outgoing ray i from which two or more orbits end
    on one incoming ray, else None: the `_least_rotation` of ray i's labels
    and of its exact labels, six values in all.  `orbits` are in order of
    outgoing ray and residue, so those of ray i are its row by residue.

    List the orbits of ray i by residue x.  For the orbit o_x, its incoming
    ray N, and the next residue y, cyclically, whose orbit also ends on N
    (x itself when there is none), the label of x is N, the gap y - x mod
    t_i and the step of the residue on N from o_x to o_y, mod |t_N|: the
    step of their incoming cutoffs, as a cutoff is congruent to its
    residue, and so of the neg_cutoff - |t_N| * spine_len of each.  The
    exact label appends Φ(o_y) - Φ(o_x), where
    Φ(o) = |t_N| * pos_cutoff + t_i * (neg_cutoff - |t_N| * spine_len)."""
    forms: List[Optional[tuple]] = [None] * (len(t) + 1)
    for ray, run in groupby(orbits, attrgetter("pos_ray")):
        row, up, groups = tuple(run), t[ray - 1], {}  # groups: incoming ray -> residues
        for x, o in enumerate(row):
            groups.setdefault(o.neg_ray, []).append(x)
        if len(groups) == len(row):
            continue
        plain, exact = [()] * up, [()] * up
        for neg, xs in groups.items():
            down = -t[neg - 1]
            for x, y in zip(xs, xs[1:] + xs[:1]):
                ox, oy = row[x], row[y]
                step = oy.neg_cutoff - ox.neg_cutoff - down * (oy.spine_len - ox.spine_len)
                plain[x] = label = (neg, (y - x) % up, step % down)
                exact[x] = label + (down * (oy.pos_cutoff - ox.pos_cutoff) + up * step,)
        forms[ray] = _least_rotation(plain) + _least_rotation(exact)
    return forms


def _walk(g: HoughtonElement) -> Tuple[CycleDecomposition, Tuple[Point, ...]]:
    """The cycle decomposition of g, walked afresh, and its fixed entries.

    Every orbit is walked forward by one step rule, in one loop.  A run
    starts at a point of the table's range, or at the top spine point of an
    incoming class; g translates it until it meets the first domain point
    of its class in the direction of t_i, and that point's image starts the
    next run.  On an outgoing ray, a run that meets no domain point is the
    one point where the walk leaves the table, and the cutoff of its class
    is one step above it.  The infinite orbits are walked first, each from
    its incoming class, then the finite cycles, each from a range point
    those walks did not reach until it is back there."""
    steps = (0,) + g.t  # steps[i] = t_i
    dom = g.exceptions

    # one pass over the domain groups its offsets by residue class of a
    # moving ray, sorted after it for the lookup.  A class is keyed (ray,
    # offset % t_ray): on one ray that names the class as well as offset
    # mod |t_ray| does, with the residue in (t_ray, 0] when t_ray < 0.
    # Beyond the top table point of a class g translates it, so the class's
    # cutoff, its first stable offset, is that point's offset + |t_i|.  The
    # walk finds the top point at each end of an orbit:
    #   - incoming (t_i < 0): check 4 of `HoughtonElement._validate` puts a
    #     domain point in the class, and its top table point is one, as a
    #     range point alone there would be the tail image of the point |t_i|
    #     above it, off the domain, which check 6 refuses;
    #   - outgoing (t_j > 0): the walk leaves the table at a range point m
    #     with no domain point at or above it in its class.  A range point r
    #     above m would be the tail image of r - t_j, off the domain, which
    #     check 6 refuses.  So m is the top, and the last run is m alone
    index: Dict[Tuple[int, int], List[int]] = {}
    for i, m in dom:
        step = steps[i]
        if step:
            index.setdefault((i, m % step), []).append(m)
    starts = []
    for (i, _), offsets in index.items():
        offsets.sort()
        if steps[i] < 0:
            starts.append((i, offsets[-1]))

    # the walks start at the top spine point of each incoming class, its
    # top domain point, and then at each point of the table's range that
    # they left unseen.  The runs are the maximal stretches on which g
    # translates: a range point strictly inside a run would be hit both by
    # an exception and by the tail formula, which check 6 refuses, and a
    # domain point strictly inside a run would leave the next point of the
    # run with no preimage, and g is onto (the index count of
    # `HoughtonElement._validate`).  So the runs are the same whichever
    # point of the orbit a walk starts from, and every range point of an
    # orbit starts one.  seen collects those, so no finite-cycle walk
    # enters an infinite orbit or a cycle walked before.  The runs of a
    # walk end at distinct domain points, so it has at most one run more
    # than the table has entries and needs no limit of its own
    starts += dom.values()
    orbits: List[InfiniteOrbit] = []
    finite: List[FiniteCycle] = []
    fixed: List[Point] = []
    claimed = set()
    seen = set()
    for start in starts:
        if start in seen:
            continue
        j, m = start
        runs: List[Run] = []
        length = 0
        while True:
            step = steps[j]
            end = m if (j, m) in dom else _next_domain(index, j, m, step)
            if end is None:
                break
            count = (end - m) // step + 1 if step else 1
            runs.append((j, m, step, count))
            length += count
            j, m = q = dom[j, end]
            seen.add(q)
            if q == start:
                break
        if end is None:
            # the last run, the single point m on the outgoing ray
            pos_key = (j, m % step)
            if pos_key in claimed:
                raise RuntimeError("outgoing residue class claimed twice")
            claimed.add(pos_key)
            runs.append((j, m, step, 1))
            i, top, down, _ = runs[0]
            orbits.append(InfiniteOrbit(j, pos_key[1], m + step, i, top % -down, top - down, tuple(runs), length + 1))
        elif length > 1:
            finite.append(_from_least(runs, length))
        else:  # back at its start after one point: an entry p -> p
            fixed.append(start)
    # the cycles by least point, which starts each one's first run; the
    # orbits by outgoing ray, then residue: no two orbits share both
    return CycleDecomposition(g.n, g.t, tuple(sorted(finite)), tuple(sorted(orbits))), tuple(fixed)


def cycle_type(g: HoughtonElement) -> Tuple[Tuple[int, ...], int]:
    """Multiset of finite cycle lengths plus infinite orbit count.

    Fixed points are not part of it.  An element with some t_i = 0 fixes
    infinitely many points, but one whose rays all move fixes only its
    exception entries p -> p, and two elements can agree here yet differ
    in that number; fixed_point_count gives it.
    """
    data = _conjugacy_data(g)
    return (data.cycle_lengths, len(data.dec.infinite_orbits))


def fixed_point_count(g: HoughtonElement) -> Optional[int]:
    """Number of fixed points, or None when it is infinite (some t_i = 0).

    When every ray moves, a point off the exception table is translated,
    so the fixed points are exactly the exception entries p -> p.  They
    are counted off the table, not the kept record: `conjugate` refuses
    on this count before it walks either element; walking first costs
    cold decisions 9 % more bytecodes on the `same_invariant` pool.
    """
    if 0 in g.t:
        return None
    exc = g.exceptions
    return sum(map(eq, exc, exc.values()))  # the entries p -> p


def sym_conjugate(a: HoughtonElement, b: HoughtonElement) -> bool:
    """Conjugacy in the full symmetric group: equal cycle types and equal
    numbers of fixed points."""
    _check_same_n(a, b)
    return cycle_type(a) == cycle_type(b) and fixed_point_count(a) == fixed_point_count(b)


def _ends_classes(orbits: Sequence[InfiniteOrbit]) -> Tuple[Tuple[InfiniteOrbit, ...], ...]:
    """The infinite orbits grouped by ends class, the classes in order of
    their heads, their lowest-index orbits.  A class starts at the first
    orbit left and grows breadth first, by every orbit left that shares a
    ray with one already in it, so each orbit after the head shares a ray
    with an earlier one.

    Of the order within a class, `_class_record` needs only that, and it
    holds for the first orbits of the class's ray pairs alone, which it
    walks: the earlier orbit that a first orbit shares a ray with has the
    rays of its pair's first orbit, which comes no later.  For a given
    partner of the head, what it reports does not depend on which such
    order it walks.  An orbit's shift equations fix s_pos mod t_pos
    and s_neg mod |t_neg| whatever its d is, and a cutoff is congruent to
    its residue, so these residues say that the partner's classes are the
    orbit's moved by s.  So the residues spread from the head along the
    shared rays, and every order reaches the same ones or refuses alike.
    An exact choice gives the one s that solves every orbit's equations
    with d = 0 on the head, and sum(s) mod g follows from the residues, as
    g divides every t_i."""
    on_ray: Dict[int, List[int]] = {}
    for k, o in enumerate(orbits):
        for ray in (o.pos_ray, o.neg_ray):
            on_ray.setdefault(ray, []).append(k)
    left = [True] * len(orbits)
    classes = []
    for head, orbit in enumerate(orbits):
        if left[head]:
            left[head] = False
            cls = [orbit]
            for o in cls:  # cls grows while it is read
                for ray in (o.pos_ray, o.neg_ray):
                    for k in on_ray.pop(ray, ()):
                        if left[k]:
                            left[k] = False
                            cls.append(orbits[k])
            classes.append(tuple(cls))
    return tuple(classes)


def _class_rays(orbits: Iterable[InfiniteOrbit]) -> FrozenSet[int]:
    return frozenset(ray for o in orbits for ray in (o.pos_ray, o.neg_ray))


def ends_partition(g: HoughtonElement) -> EndsPartition:
    """The moving rays grouped by ends class, in order of smallest ray."""
    classes = map(_class_rays, _ends_classes(_conjugacy_data(g).dec.infinite_orbits))
    return EndsPartition(tuple(sorted(classes, key=min)))
