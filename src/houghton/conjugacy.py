"""Conjugacy decision for H_n with explicit conjugator certificates.

The solver layers:

  _forced_conjugator    the conjugator of a given translation s, or the
                        stage that refutes it: each infinite orbit paired
                        with its partner under s and read off their runs,
                        finite cycles paired by length, fixed points
                        paired by position; a yes carries the bounds of
                        its orbit pairs
  fsym_conjugate        that builder at s = 0 (conjugators of finite support)
  conjugate             the full decision: pair the infinite orbits of a
                        with those of b, solve the orbit-shift equations
                        for a translation s that a conjugator with that
                        pairing has, and build it at s
  _orbit_refusal        the tag of conjugate's "no" once an ends class has
                        no exact pairing, read off a view of each class's
                        choices: the sums of s of its first two choices,
                        and one gcd with gcd(t)

Every positive answer carries an element x with x^-1 * a * x = b, checked
exactly before it is returned; an x that fails the check raises RuntimeError.
"""

from __future__ import annotations

from itertools import islice, tee
from math import gcd
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .core import (
    HoughtonElement,
    InvalidElementError,
    Point,
    _check_n,
    _check_same_n,
    _integer,
    _make,
    apply,
    verify,
)
from . import orbits as _orbits
from .orbits import (
    _LENGTH,
    InfiniteOrbit,
    Run,
    WalkLimitError,
    _class_rays,
    _conjugacy_data,
    _ConjugacyData,
    _OrbitIndex,
    cycle_decomposition,
    fixed_point_count,
    run_points,
)

TRANSLATION_MISMATCH = "translation-mismatch"
SUPPORT_COUNT_MISMATCH = "support-count-mismatch"
CYCLE_TYPE_MISMATCH = "cycle-type-mismatch"
FORCED_MAP_INCONSISTENT = "forced-map-inconsistent"
ORBIT_PAIRING_MISMATCH = "orbit-pairing-mismatch"
ORBIT_SHIFT_MISMATCH = "orbit-shift-mismatch"


class BoundData(NamedTuple):
    # the largest |S| + |T| over matched orbit pairs (O, O'): S and T are the
    # points of O and of O' moved back by the conjugator's translation s
    # that lie outside the common stable tails of the pair
    K: int
    M: int  # max |t_i(a)| over moving rays


class ConjugacyOutcome(NamedTuple):
    conjugator: Optional[HoughtonElement]
    verified: bool = False
    reason: Optional[str] = None
    bounds: Optional[BoundData] = None

    @property
    def is_conjugate(self) -> bool:
        return self.conjugator is not None


def _no(reason: str) -> ConjugacyOutcome:
    return ConjugacyOutcome(None, False, reason)


# -- the conjugator of a given translation -----------------------------------


def _unmatched_fixed(a: HoughtonElement, b: HoughtonElement, s: Sequence[int]) -> List[Point]:
    """The sorted fixed points p of a whose translate p + s is not a fixed
    point of b, for a.t == b.t.

    Off its exception table an element translates every ray, so it fixes a
    point only through an entry p -> p (`_ConjugacyData.fixed`) or off its
    table on a ray with t_i = 0.  Minimality (check 3 of
    `HoughtonElement._validate`) refuses an entry p -> p on such a ray, so
    the entries p -> p lie on moving rays, where only an entry of b fixes
    p + s, and b moves every table point of such a ray.  There the fixed
    points p of a off its table are unmatched when p + s_i is no point
    (offset below -s_i) or is in b's table: O(|tables| + |s_i|) in all.
    """
    ae, be, t = a.exceptions, b.exceptions, a.t
    out = []
    for p in _conjugacy_data(a).fixed:
        i, m = p
        q = (i, m + s[i - 1])
        if be.get(q) != q:
            out.append(p)
    if 0 in t:
        for i, k in be:
            if t[i - 1] == 0:
                m = k - s[i - 1]
                if m >= 0 and (i, m) not in ae:
                    out.append((i, m))
        for i, step in enumerate(t, 1):
            if step == 0 and s[i - 1] < 0:
                out.extend((i, m) for m in range(-s[i - 1]) if (i, m) not in ae)
    return sorted(out)


def _forced_conjugator(
    a: HoughtonElement,
    b: HoughtonElement,
    s: Sequence[int],
    data_a: _ConjugacyData,
    data_b: _ConjugacyData,
) -> ConjugacyOutcome:
    """The conjugator x of translation s from a to b, for a.t == b.t and
    equal cycle types, or the stage that refutes every such x.  data_a and
    data_b are the kept conjugacy data of a and b (`_conjugacy_data`).

    Fixed points.  x maps a fixed point p of a to p + s wherever that is a
    fixed point of b; the others (`_unmatched_fixed`) of a and of b are
    paired in sorted order, and their counts must agree.  That check
    comes first.  It is skipped when neither a nor b has an entry p -> p
    and every ray moves: then neither fixes any point (by the argument of
    `_unmatched_fixed`), so both lists are empty.

    Finite cycles.  x maps each cycle of a onto one of b of equal length,
    aligned at their least points, and paired in the order of those points.

    Infinite orbits.  With the numbering o_k of `conjugate`, x is
    translation by s_i far out on every ray i, so it maps an orbit O of a
    onto the orbit O' of b whose incoming class is O's moved by s, o_k to
    o'_{k+d}, and the incoming orbit-shift equation gives d.  When O' ends
    on another ray than O, or the outgoing equation fails, no x of
    translation s exists: forced-map-inconsistent.  Otherwise x(o_k) =
    o_k + s_i both where o_k and o'_{k+d} lie in their incoming tails,
    k < min(-L, -L' - d), and where both lie in their outgoing tails,
    k >= max(0, -d).  So x's entries on O lie in the window in between,
    which holds both spines and a piece of each tail.  x is read off by
    merging O's runs over the window with those of O' shifted by d: on a
    stretch where both runs go on, a and b translate alike, so its points
    are all entries of x or none.  The paired cycles and windows are
    merged in one pass: each pair holds as many points on either side, so
    a's pieces laid end to end meet b's pair by pair.  That costs the runs
    plus the certificate, whatever the offsets.

    Bounds.  O and O' each have hi - lo points in the window, and these
    are the points outside the pair's common stable tails once O' is moved
    back by s.  By the outgoing shift equation the outgoing tail of O'
    moved back starts at the offset of o_{-d}, so the common one starts at
    k = max(0, -d) = hi; by the incoming equation the incoming tail of O'
    moved back ends at the offset of o_{-L'-d-1}, so the common one ends
    below k = lo.  So K, the largest |S| + |T| over the pairs, is twice
    the widest window, and M is max |t_i|.

    The merge raises WalkLimitError where x's table would pass _WALK_LIMIT
    entries, counting the fixed points' entries, which are in hand before
    it.  x is checked by the constructor's bijectivity and minimality
    checks and then once by verify; a failure there raises RuntimeError.
    """
    mapping: Dict[Point, Point] = {}
    if data_a.fixed or data_b.fixed or 0 in a.t:
        unmatched_a = _unmatched_fixed(a, b, s)
        unmatched_b = _unmatched_fixed(b, a, [-v for v in s])
        if len(unmatched_a) != len(unmatched_b):
            return _no(SUPPORT_COUNT_MISMATCH)
        mapping.update(zip(unmatched_a, unmatched_b))

    # the runs to merge, pair by pair, each run not empty: the finite cycles
    # (equal cycle types, so a stable sort by length pairs the cycles of
    # each length in the order of their least points), then the windows
    seq_a: List[Run] = []
    seq_b: List[Run] = []
    if data_a.cycle_lengths:
        for ca, cb in zip(sorted(data_a.dec.finite_cycles, key=_LENGTH), sorted(data_b.dec.finite_cycles, key=_LENGTH)):
            seq_a += ca.runs
            seq_b += cb.runs
    t, shifts = a.t, (0, *s)  # shifts[i] = s_i
    width = 0  # the widest window
    index_b = data_b.orbit_index()
    for pos, _, pos_cut, neg, neg_residue, neg_cut, runs, spine_len in data_a.dec.infinite_orbits:
        up, down, shift = t[pos - 1], -t[neg - 1], shifts[neg]
        pos_b, _, pos_cut_b, _, _, neg_cut_b, runs_b, len_b = index_b[neg][(neg_residue + shift) % down]
        d = (neg_cut_b - neg_cut - shift) // down + spine_len - len_b
        if pos_b != pos or pos_cut_b + up * d != pos_cut + shifts[pos]:
            return _no(FORCED_MAP_INCONSISTENT)
        # the window k in [lo, hi) as runs: a piece of the incoming tail,
        # the spine and a piece of the outgoing tail, of O and of O'
        lo, hi = min(-spine_len, -len_b - d), max(0, -d)
        if hi - lo > width:
            width = hi - lo
        count = -spine_len - lo
        if count:
            seq_a.append((neg, neg_cut + (count - 1) * down, -down, count))
        seq_a += runs
        if hi:
            seq_a.append((pos, pos_cut, up, hi))
        count = -len_b - d - lo
        if count:
            seq_b.append((neg, neg_cut_b + (count - 1) * down, -down, count))
        seq_b += runs_b
        if hi + d:
            seq_b.append((pos, pos_cut_b, up, hi + d))

    limit = _orbits._WALK_LIMIT
    rest_b = iter(seq_b)
    left_b = 0
    for ray, m, step, left in seq_a:
        while left:
            if not left_b:
                ray_b, m_b, step_b, left_b = next(rest_b)
            count = left if left < left_b else left_b
            if ray != ray_b or m_b != m + shifts[ray]:
                if len(mapping) + count > limit:
                    raise WalkLimitError("a conjugator needs more than %d table entries" % limit)
                for k in range(count):
                    mapping[(ray, m + k * step)] = (ray_b, m_b + k * step_b)
            m += count * step
            m_b += count * step_b
            left -= count
            left_b -= count

    x = _make(a.n, tuple(s), mapping)
    x._validate()
    if not verify(a, b, x):
        raise RuntimeError("the conjugator built at translation %s fails verify" % (tuple(s),))
    return ConjugacyOutcome(x, True, None, BoundData(2 * width, max(map(abs, t))))


def fsym_conjugate(a: HoughtonElement, b: HoughtonElement) -> ConjugacyOutcome:
    """Decide whether some x with t(x) = 0 and finite support conjugates a to b.

    Such an x is the identity far out on every ray, so after the
    translation and cycle-type checks `_forced_conjugator` at s = 0 either
    builds it or names the stage that refutes it.  The work is bounded by
    the exception tables and the certificate, not by the offsets.
    """
    _check_same_n(a, b)
    if a.t != b.t:
        return _no(TRANSLATION_MISMATCH)
    data_a = _conjugacy_data(a)
    data_b = _conjugacy_data(b)
    # with a.t == b.t the orbit counts agree, so the cycle types agree
    # exactly when the finite cycle lengths do
    if data_a.cycle_lengths != data_b.cycle_lengths:
        return _no(CYCLE_TYPE_MISMATCH)
    return _forced_conjugator(a, b, (0,) * a.n, data_a, data_b)


# -- translation elements and centralizers ------------------------------------


# bench/spans.py wraps this function by name
def construct_translation_element(n: int, w: Sequence[int]) -> HoughtonElement:
    """An element with translation vector w: the points (j, m) with
    m < -w_j go, in ray order, onto the points (i, m) with m < w_i, in ray
    order.  `conjugate` does not use it: it builds its certificate at the
    translation it solves for.  WalkLimitError is raised, before any list
    is built, when the element would have more than _WALK_LIMIT table
    entries."""
    _check_n(n, InvalidElementError)
    w = [_integer(v) for v in w]
    # the sum of the positive w_i when w sums to 0; when it does not, at
    # least half the longer list, which the constructor then refuses
    if sum(map(abs, w)) // 2 > _orbits._WALK_LIMIT:
        raise WalkLimitError("a translation element needs more than %d table entries" % _orbits._WALK_LIMIT)
    sources = [(j, m) for j, v in enumerate(w, 1) for m in range(-v)]
    targets = [(i, m) for i, v in enumerate(w, 1) for m in range(v)]
    return HoughtonElement(n, w, zip(sources, targets))


def centralizer_element(g: HoughtonElement, ray_class: Iterable[int]) -> HoughtonElement:
    """The product of all infinite cycles of g living on one ends class.

    The result commutes with g, translates like g on the class's rays and
    fixes the other rays almost everywhere.  Its table is counted from the
    runs of g's orbits before any run is listed point by point, and
    WalkLimitError is raised when it would have more than _WALK_LIMIT
    entries.
    """
    cls = frozenset(ray_class)
    data = _conjugacy_data(g)
    dec = data.dec
    if cls not in map(_class_rays, data.ends_classes()):
        raise ValueError("%s is not an equivalence class of rays for this element" % sorted(cls))
    t_masked = tuple(v if (i + 1) in cls else 0 for i, v in enumerate(g.t))

    # the result moves the points of the class's infinite orbits as g does
    # and fixes every other point, so its exceptions are: the points of
    # those orbits on rays outside the class, where t_masked is 0; the
    # table points that end their runs on the class's rays, as inside a run
    # g translates like t_masked; and every other point on the class's
    # rays, which lies on another orbit or a finite cycle or is fixed by g.
    # Far out on the class's rays g translates, so nothing else differs
    exc: Dict[Point, Point] = {}
    still: List[Run] = []  # runs whose points the result fixes
    moved: List[Run] = []  # runs whose points it moves as g does
    for o in dec.infinite_orbits:
        for run in o.runs:
            if o.pos_ray not in cls:
                if run[0] in cls:
                    still.append(run)
            elif run[0] not in cls:
                moved.append(run)
            else:
                ray, start, step, count = run
                last = (ray, start + (count - 1) * step)
                if last in g.exceptions:
                    exc[last] = g.exceptions[last]
    for c in dec.finite_cycles:
        still += (run for run in c.runs if run[0] in cls)
    exc.update((p, p) for p in data.fixed if p[0] in cls)
    # the runs' points are distinct from each other and from those in exc
    if len(exc) + sum(run[3] for run in still + moved) > _orbits._WALK_LIMIT:
        raise WalkLimitError("a centralizer element needs more than %d table entries" % _orbits._WALK_LIMIT)
    exc.update((p, p) for p in run_points(still))
    exc.update((p, apply(g, p)) for p in run_points(moved))
    return HoughtonElement(g.n, t_masked, exc)


# -- orbit pairing ------------------------------------------------------------


# bench/spans.py wraps this function by name
def compute_bounds(a: HoughtonElement, b: HoughtonElement) -> BoundData:
    """Size data of the orbit pairing of a and b, which must share t.

    Raises ValueError unless every infinite orbit of a has a counterpart
    in b with the same outgoing and incoming residue classes.
    K is the largest |S| + |T| over matched orbit pairs, where S and T are
    the finite parts of the two orbits outside their common stable tails;
    M is the largest |t_i(a)|.  The pairs are measured from their cutoffs,
    not by building a conjugator, as their shift equations need not hold.
    """
    if a.t != b.t:
        raise ValueError("bounds require equal translation vectors")
    t = a.t
    index_b = _conjugacy_data(b).orbit_index()
    big_k = 0
    for oa in cycle_decomposition(a).infinite_orbits:
        ob = index_b[oa.pos_ray][oa.pos_residue]
        if (oa.neg_ray, oa.neg_residue) != (ob.neg_ray, ob.neg_residue):
            raise ValueError(
                "orbit ending at ray %d residue %d has no counterpart" % (oa.pos_ray, oa.pos_residue)
            )
        up, down = t[oa.pos_ray - 1], -t[oa.neg_ray - 1]
        pos_cut = max(oa.pos_cutoff, ob.pos_cutoff)
        neg_cut = max(oa.neg_cutoff, ob.neg_cutoff)
        size = oa.spine_len + ob.spine_len
        for o in (oa, ob):
            size += (pos_cut - o.pos_cutoff) // up + (neg_cut - o.neg_cutoff) // down
        big_k = max(big_k, size)
    return BoundData(big_k, max(map(abs, t)))


# -- the full decision ----------------------------------------------------------


def _class_shifts(
    t: Sequence[int], orbits: Sequence[InfiniteOrbit], index_b: _OrbitIndex
) -> Iterator[Tuple[Dict[int, int], bool]]:
    """Every way to pair the orbits of one ends class of a with orbits of b
    residue for residue, as (s, exact): s holds a conjugator's translation
    on the class's rays, solved from the orbit-shift equations of
    `conjugate` with d = 0 on the first orbit, and exact is False when
    those equations give some ray two values of the same residue.  The
    choices are generated lazily, one walk of the class each, in the order
    of b's orbits with the first orbit's end rays: those of its outgoing
    ray in order of residue, where one that ends on another incoming ray
    is refused at once.  `index_b` is b's kept orbit index
    (`_ConjugacyData.orbit_index`).

    A further orbit's partner is looked up, and its d read off, by the
    outgoing ray when its s_i is known, else by the incoming one.  A
    cutoff is congruent to its residue, so that d solves the ray's
    equation exactly, and only the other ray, when known too, is compared:
    a residue clash refuses the choice, and a second value makes it inexact."""
    head = orbits[0]
    for first in index_b[head.pos_ray]:
        s: Dict[int, int] = {}
        exact = True
        for oa in orbits:
            pos, neg = oa.pos_ray, oa.neg_ray
            up, down = t[pos - 1], t[neg - 1]
            s_pos, s_neg = s.get(pos), s.get(neg)
            if oa is head:
                ob = first
            elif s_pos is not None:
                ob = index_b[pos][(oa.pos_residue + s_pos) % up]
            else:
                ob = index_b[neg][(oa.neg_residue + s_neg) % -down]
            if ob.pos_ray != pos or ob.neg_ray != neg:
                break
            c_pos = ob.pos_cutoff - oa.pos_cutoff
            c_neg = ob.neg_cutoff - oa.neg_cutoff - down * (oa.spine_len - ob.spine_len)
            if s_pos is not None:
                d = (s_pos - c_pos) // up
            elif s_neg is not None:
                d = (s_neg - c_neg) // down
            else:
                d = 0
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


def _least_translation(t: Sequence[int], part: Dict[int, int]) -> Dict[int, int]:
    """The translation `part` of one ends class (ray -> s_i) moved by the
    k * t that minimises f(k) = sum |s_i + k * t_i| over the class's rays;
    among the minimisers, the k nearest 0.  f is convex, so its step
    f(k + 1) - f(k) grows with k: it is positive from k = max |s_i| on and
    negative below -max |s_i|.  So the minimisers lie at k > 0 when
    f(1) < f(0), at k < 0 when f(-1) < f(0), and k = 0 otherwise.  The
    mirror k -> -k makes both sides one search: with σ = ±1 (`sign`) the
    side, g(j) = f(σj) is convex and falls from j = 0 to 1, so its
    minimiser nearest 0 is the least j in [1, max |s_i|] with
    g(j + 1) >= g(j), found by bisection.  For σ = -1 that is the greatest
    k < 0 with f(k) - f(k - 1) <= 0."""
    # f(-1), f(0) and f(1) in one pass, and most classes stop at k = 0
    before = here = after = 0
    for ray, v in part.items():
        step = t[ray - 1]
        before += abs(v - step)
        here += abs(v)
        after += abs(v + step)
    if after < here:
        sign = 1
    elif before < here:
        sign = -1
    else:
        return part
    lo, hi = 1, max(map(abs, part.values()))
    while lo < hi:
        mid = (lo + hi) // 2
        k = sign * mid
        if sum(abs(v + (k + sign) * t[ray - 1]) - abs(v + k * t[ray - 1]) for ray, v in part.items()) >= 0:
            hi = mid
        else:
            lo = mid + 1
    return {ray: v + sign * lo * t[ray - 1] for ray, v in part.items()}


def _orbit_refusal(t: Sequence[int], views: Iterable[Iterator[Tuple[Dict[int, int], bool]]]) -> str:
    """The tag of a refusal of `conjugate`, once some ends class has no
    exact choice.  `views` holds a view of each class's `_class_shifts`
    choices, in the order of the classes, read from its first choice: the
    choices that `conjugate` drew come back from the view, and the rest
    are generated as they are read.

    The tag needs only the sums of s mod g, with g = gcd(t) when every ray
    moves and 1 otherwise, and each class gives at most its first two
    choices.  A choice survives exactly when the residues s_i mod |t_i| it
    fixes pass every orbit's lookup, exact or not.  Two survivors differ
    by residues that map b's orbits of the class onto themselves, end for
    end; these form a group S, and as the class is connected its residue
    on the first orbit's outgoing ray P fixes the others, so S is a
    subgroup pZ/t_P and the survivors come at residues f, f + p, f + 2p,
    ... of P in generation order.  g divides every t_i, so sum(s) mod g is
    additive in the residues: with q the sum of the first choice and δ the
    second's minus it, the class reaches exactly q + <δ> mod g.  Cosets
    add, so 0 is reached together exactly when the sum of the q is 0 mod
    the gcd of g and the δ, and a second choice is read only while that
    gcd is above 1.  The answer is orbit-shift-mismatch then, and
    orbit-pairing-mismatch otherwise or at the first class with no choice.
    """
    modulus = gcd(*t) if 0 not in t else 1
    total = 0  # the sum of s over each class's first choice
    for view in views:
        sums = [sum(part.values()) for part, _ in islice(view, 2 if modulus > 1 else 1)]
        if not sums:
            return ORBIT_PAIRING_MISMATCH
        total += sums[0]
        if len(sums) == 2:
            modulus = gcd(modulus, sums[1] - sums[0])
    return ORBIT_SHIFT_MISMATCH if total % modulus == 0 else ORBIT_PAIRING_MISMATCH


def conjugate(a: HoughtonElement, b: HoughtonElement) -> ConjugacyOutcome:
    """The full conjugacy decision in H_n, with certificate.

    Orbit pairing.  A conjugator x maps each infinite orbit O of a onto an
    orbit O' of b with the same two end rays, and far out it translates
    ray i by s_i, so O' has the residues of O moved by s: pos_residue' =
    (pos_residue + s_pos) mod t_pos, and the same on the incoming ray.
    The orbits of one ends class share rays, so once the partner of its
    first orbit is chosen among the orbits of b with the same two end
    rays, the residues of s it fixes look up the partner of every further
    orbit.  A choice is refused when a looked-up partner has other end rays
    or gives a known ray a second residue; when every choice of some class
    is refused, or when every ray moves and no combination of choices has
    sum(s) divisible by gcd(t), the answer is orbit-pairing-mismatch.

    Orbit shifts.  Number the points of O as o_k with o_{k+1} = (o_k)a
    and o_0 = (pos_ray, pos_cutoff).  The spine is o_{-L} .. o_{-1} with
    L = spine_len, and o_{-L-1} = (neg_ray, neg_cutoff).  x maps o_k to
    o'_{k+d_O} for one integer d_O.  Comparing the tails gives, with primes
    for O',

        s_pos = t_pos * d_O + (pos_cutoff' - pos_cutoff)
        s_neg = t_neg * d_O + (neg_cutoff' - neg_cutoff) + |t_neg| * (L - L')

    Orbits that share a ray share its s_i, so within an ends class one d_O
    fixes every other: each further orbit reads its d off a ray whose s_i
    is known (an integer, as its partner was looked up by that residue).
    A combination is refused with orbit-shift-mismatch when a ray gets two
    values.

    d = 0 on the first orbit of each ends class E loses nothing:
    centralizer_element(a, E) commutes with a and moves every orbit of E
    one step along itself, so multiplying x by it on the left gives
    another conjugator with the same partners whose d_O are all one larger
    on E.  So the d_O of E may all move by any k, which moves s by k * t_i
    on the rays of E and keeps sum(s): each orbit of E leaves E on one ray
    and enters it on one, so the t_i of E sum to 0.  `_least_translation`
    takes the k that minimises the sum of |s_i + k * t_i| over E.  A
    conjugator of translation s has at least the sum of the positive s_i
    table entries (the points (i, m) with m < s_i are hit by no tail), so
    when that sum is over _WALK_LIMIT, WalkLimitError is raised before
    the conjugator is built.

    Existence.  Take a combination that gives every ray one value s_i (an
    exact one).  Mapping o_k to o'_{k+d_O} on every orbit is a bijection
    of the unions of the infinite orbits of a and of b (partners are
    looked up by residues moved by s) that carries a to b and is
    translation by s_i far out on each moving ray.  The finite cycles
    match by the cycle-type check.  When every ray moves, the fixed points
    match by the fixed-point check, and sum(s) = 0 by the index
    argument: a bijection between cofinite sets that translates by s far
    out has sum(s) equal to the points outside its range minus those
    outside its domain.  On the rays with t_i = 0, a and b fix every far
    point, and by the same count the fixed points match for any values
    there that make sum(s) 0; -sum(s) goes on the first such ray.  So
    every exact combination has a conjugator of translation s.

    Decision.  By the existence argument an exact combination is a yes,
    and the first in the order of the choices takes the first exact
    choice of every class.  The choices of a class are generated lazily,
    and each class stops at its first exact one.  The loop reads each
    class's choices through one of two views (`itertools.tee`).  When
    some class has none, `_orbit_refusal` reads the other view of every
    class from its start, which gives back the choices the loop drew and
    generates only those it never drew, and names the tag from the first
    one or two choices of every class and one gcd of their sums.
    For a yes, `_forced_conjugator` builds x of translation s as in the
    existence argument: it pairs each orbit of a with its partner in b,
    solves for d_O and reads x off the two orbits' runs.  x is verified
    exactly once, and the builder reports the bounds of the pairs it
    built.  A refusal there, or a nonzero sum(s) when every ray moves,
    would contradict the existence argument and raises RuntimeError.
    """
    _check_same_n(a, b)
    if a.t != b.t:
        return _no(TRANSLATION_MISMATCH)
    # the fixed points are counted off the tables, before either element
    # is decomposed
    if fixed_point_count(a) != fixed_point_count(b):
        return _no(CYCLE_TYPE_MISMATCH)
    data_a = _conjugacy_data(a)
    data_b = _conjugacy_data(b)
    # with a.t == b.t the orbit counts agree, so the cycle types agree
    # exactly when the finite cycle lengths do
    if data_a.cycle_lengths != data_b.cycle_lengths:
        return _no(CYCLE_TYPE_MISMATCH)

    t = a.t
    index_b = data_b.orbit_index()
    # two views of each class's choices: the loop reads the first, and the
    # refusal stage the second, from its start
    views = [tee(_class_shifts(t, orbits, index_b)) for orbits in data_a.ends_classes()]
    s = [0] * a.n
    for choices, _ in views:
        for part, exact in choices:
            if exact:
                for ray, value in _least_translation(t, part).items():
                    s[ray - 1] = value
                break
        else:
            return _no(_orbit_refusal(t, [view for _, view in views]))
    if 0 in t:
        s[t.index(0)] -= sum(s)
    elif sum(s):
        raise RuntimeError("exact orbit shifts with sum %d while every ray moves" % sum(s))
    need = sum(v for v in s if v > 0)
    if need > _orbits._WALK_LIMIT:
        raise WalkLimitError(
            "a conjugator needs at least %d table entries, over the limit of %d" % (need, _orbits._WALK_LIMIT)
        )
    out = _forced_conjugator(a, b, tuple(s), data_a, data_b)
    if not out.is_conjugate:
        raise RuntimeError("consistent orbit shifts refused by the conjugator builder: %s" % out.reason)
    return out
