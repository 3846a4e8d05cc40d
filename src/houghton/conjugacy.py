"""Conjugacy decision for H_n with explicit conjugator certificates.

The solver layers:

  fsym_conjugate        conjugator with zero translation (finite support)
  conjugate             the full decision: pair the infinite orbits of a
                        with those of b, solve the orbit-shift equations
                        for the one translation a conjugator with that
                        pairing can be normalised to, and reduce to the
                        finite-support case

Every positive answer carries an element x with x^-1 * a * x = b, checked
exactly before it is returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .core import (
    HoughtonElement,
    Point,
    apply,
    compose,
    conjugate_element,
    equals,
    identity,
    inverse,
)
from .orbits import (
    CycleDecomposition,
    InfiniteOrbit,
    WalkLimitError,
    _class_rays,
    _ends_classes,
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

_WALK_LIMIT = 10_000_000


class StructuralMismatch(ValueError):
    """Infinite orbits of the two elements do not pair up residue-for-residue."""


@dataclass(frozen=True)
class BoundData:
    K: int  # max |S|+|T| over matched orbit pairs
    M: int  # max |t_i(a)| over moving rays


@dataclass(frozen=True)
class ConjugacyOutcome:
    conjugator: Optional[HoughtonElement]
    verified: bool = False
    reason: Optional[str] = None
    bounds: Optional[BoundData] = None

    @property
    def is_conjugate(self) -> bool:
        return self.conjugator is not None


def _yes(x: HoughtonElement, verified: bool, bounds: Optional[BoundData] = None) -> ConjugacyOutcome:
    return ConjugacyOutcome(conjugator=x, verified=verified, bounds=bounds)


def _no(reason: str) -> ConjugacyOutcome:
    return ConjugacyOutcome(conjugator=None, reason=reason)


def verify(a: HoughtonElement, b: HoughtonElement, x: HoughtonElement) -> bool:
    """Exact certificate check: x^-1 * a * x equals b."""
    return equals(conjugate_element(a, x), b)


# -- conjugation by finite-support elements ----------------------------------


def _moved_only_by(a: HoughtonElement, b: HoughtonElement) -> List[Point]:
    """The sorted points that a moves and b fixes, for a.t == b.t.

    Off its exception table an element translates every ray, so b fixes
    a point only through an entry p -> p or on a ray with t_i = 0; there a
    moves only the points of its own table.
    """
    only = [p for p, q in b.exceptions.items() if p == q and apply(a, p) != p]
    only += [
        p
        for p, q in a.exceptions.items()
        if p != q and a.t[p[0] - 1] == 0 and p not in b.exceptions
    ]
    return sorted(only)


def fsym_conjugate(
    a: HoughtonElement,
    b: HoughtonElement,
    dec_a: Optional[CycleDecomposition] = None,
    dec_b: Optional[CycleDecomposition] = None,
) -> ConjugacyOutcome:
    """Decide whether some x with t(x) = 0 and finite support conjugates a to b.

    Such an x is forced to be the identity far out on every moving ray, so
    its values on every infinite orbit propagate inward from the stable
    tails; finite cycles are matched by length; the leftover supports are
    paired off.  Each stage either pins down more of x or refutes.

    The work is bounded by the exception tables and the certificate, not
    by the offsets.  At or beyond the cutoffs of both elements a residue
    class meets no exception, so a and b act on it by the same
    translation.  The walk along an orbit of a therefore starts at the
    larger incoming cutoff: every point above it is forced to map to
    itself.  It stops at the first point p at or beyond both outgoing
    cutoffs: from there on a and b agree on p, and since b is a bijection
    the next step keeps p == v or p != v as it is, so a mismatch there is
    a mismatch at every later point of the tail.  In between, while p == v
    and p is off both tables, a and b translate p alike, so the walk jumps
    to the step before the next table point of either in its class, or
    before the outgoing cutoff.  The walk thus costs O(tables +
    certificate), whatever the offsets.

    `dec_a` and `dec_b`, the cycle decompositions of a and b, may be passed
    in by callers that have them already.
    """
    if a.n != b.n:
        raise ValueError("elements live in different H_n")
    if a.t != b.t:
        return _no(TRANSLATION_MISMATCH)
    if dec_a is None:
        dec_a = cycle_decomposition(a)
    if dec_b is None:
        dec_b = cycle_decomposition(b)
    if dec_a.cycle_type() != dec_b.cycle_type():
        return _no(CYCLE_TYPE_MISMATCH)

    only_a = _moved_only_by(a, b)
    only_b = _moved_only_by(b, a)
    if len(only_a) != len(only_b):
        return _no(SUPPORT_COUNT_MISMATCH)

    # the common stable tails: max of the two cutoffs of each residue class
    neg_cut: Dict[Tuple[int, int], int] = {}
    pos_cut: Dict[Tuple[int, int], int] = {}
    for o in dec_a.infinite_orbits + dec_b.infinite_orbits:
        neg = (o.neg_ray, o.neg_residue)
        pos = (o.pos_ray, o.pos_residue)
        neg_cut[neg] = max(neg_cut.get(neg, 0), o.neg_cutoff)
        pos_cut[pos] = max(pos_cut.get(pos, 0), o.pos_cutoff)

    mapping: Dict[Point, Point] = {}
    steps = 0
    for orbit in dec_a.infinite_orbits:
        neg = (orbit.neg_ray, orbit.neg_residue)
        p = v = (orbit.neg_ray, neg_cut[neg])
        while True:
            i, m = p
            step = a.t[i - 1]
            if p == v and step and p not in a.exceptions and p not in b.exceptions:
                # a and b translate p alike up to the next table point of
                # either in its class, or up to the outgoing cutoff: jump to
                # the step before that, when it is not the next one
                q = (i, m + step)
                off_tables = q not in a.exceptions and q not in b.exceptions
                if off_tables and (step < 0 or q[1] < pos_cut[(i, m % step)]):
                    ends = [dec_a.index.next_domain(i, m, step), dec_b.index.next_domain(i, m, step)]
                    if step > 0:
                        end = min([e for e in ends if e is not None] + [pos_cut[(i, m % step)]])
                    else:
                        end = max(ends)  # every offset below |step| is in both tables
                    p = v = (i, end - step)
            p = apply(a, p)
            v = apply(b, v)
            i, m = p
            up = a.t[i - 1]
            if up > 0 and m >= pos_cut[(i, m % up)]:
                if p != v:
                    return _no(FORCED_MAP_INCONSISTENT)
                break
            if p != v:
                mapping[p] = v
            steps += 1
            if steps > _WALK_LIMIT:
                raise WalkLimitError("forced-value walk took more than %d steps" % _WALK_LIMIT)
    if len(set(mapping.values())) != len(mapping):
        return _no(FORCED_MAP_INCONSISTENT)

    # finite cycles: equal length multisets (implied by the cycle-type check);
    # pair them lexicographically, aligned at their minimal points
    by_len_a: Dict[int, List[Tuple[Point, ...]]] = {}
    by_len_b: Dict[int, List[Tuple[Point, ...]]] = {}
    for c in dec_a.finite_cycles:
        by_len_a.setdefault(len(c), []).append(c)
    for c in dec_b.finite_cycles:
        by_len_b.setdefault(len(c), []).append(c)
    for length, cycles_a in by_len_a.items():
        for ca, cb in zip(cycles_a, by_len_b[length]):
            for pa, pb in zip(ca, cb):
                if pa != pb:
                    mapping[pa] = pb

    for pb, pa in zip(only_b, only_a):
        mapping[pb] = pa

    x = HoughtonElement(a.n, (0,) * a.n, {p: q for p, q in mapping.items() if p != q})
    return _yes(x, verified=verify(a, b, x))


# -- building blocks for the reduction ---------------------------------------


def _two_ray_shift(n: int, src: int, dst: int, amount: int) -> HoughtonElement:
    """Move `amount` points from ray src to ray dst."""
    t = [0] * n
    t[dst - 1] = amount
    t[src - 1] = -amount
    exc = {(src, k): (dst, k) for k in range(amount)}
    return HoughtonElement(n, t, exc, validate=False)


def construct_translation_element(n: int, w: Sequence[int]) -> HoughtonElement:
    """An element with translation vector w, built as a product of two-ray
    shifts."""
    w = [int(v) for v in w]
    if len(w) != n:
        raise ValueError("translation tuple must have length n")
    if sum(w) != 0:
        raise ValueError("translation tuple must sum to zero")
    result = identity(n)
    sources = [[j + 1, -v] for j, v in enumerate(w) if v < 0]
    for i, need in ((i + 1, v) for i, v in enumerate(w) if v > 0):
        while need:
            j, avail = sources[0]
            take = min(need, avail)
            result = compose(result, _two_ray_shift(n, j, i, take))
            need -= take
            if avail == take:
                sources.pop(0)
            else:
                sources[0][1] = avail - take
    return result


def centralizer_element(g: HoughtonElement, ray_class: Iterable[int]) -> HoughtonElement:
    """The product of all infinite cycles of g living on one ends class.

    The result commutes with g, translates like g on the class's rays and
    fixes the other rays almost everywhere.
    """
    cls = frozenset(ray_class)
    dec = cycle_decomposition(g)
    if cls not in map(_class_rays, _ends_classes(dec.infinite_orbits)):
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
    for o in dec.infinite_orbits:
        for run in o.runs:
            if o.pos_ray not in cls:
                if run[0] in cls:
                    exc.update((p, p) for p in run_points([run]))
            elif run[0] not in cls:
                exc.update((p, apply(g, p)) for p in run_points([run]))
            else:
                ray, start, step, count = run
                last = (ray, start + (count - 1) * step)
                if last in g.exceptions:
                    exc[last] = g.exceptions[last]
    for p in itertools.chain.from_iterable(dec.finite_cycles):
        if p[0] in cls:
            exc[p] = p
    for p, q in g.exceptions.items():
        if p == q and p[0] in cls:
            exc[p] = p
    return HoughtonElement(g.n, t_masked, exc)


# -- orbit pairing ------------------------------------------------------------


def _match_orbits(
    dec_a: CycleDecomposition, dec_b: CycleDecomposition
) -> List[Tuple[InfiniteOrbit, InfiniteOrbit]]:
    by_pos = {(o.pos_ray, o.pos_residue): o for o in dec_b.infinite_orbits}
    pairs = []
    for oa in dec_a.infinite_orbits:
        ob = by_pos.get((oa.pos_ray, oa.pos_residue))
        if ob is None or (oa.neg_ray, oa.neg_residue) != (ob.neg_ray, ob.neg_residue):
            raise StructuralMismatch(
                "orbit ending at ray %d residue %d has no counterpart"
                % (oa.pos_ray, oa.pos_residue)
            )
        pairs.append((oa, ob))
    return pairs


def compute_bounds(
    a: HoughtonElement,
    b: HoughtonElement,
    dec_a: Optional[CycleDecomposition] = None,
    dec_b: Optional[CycleDecomposition] = None,
) -> BoundData:
    """Size data of the orbit pairing of a and b, which must share t.

    Raises StructuralMismatch unless every infinite orbit of a has a
    counterpart in b with the same outgoing and incoming residue classes.
    K is the largest |S| + |T| over matched orbit pairs, where S and T are
    the finite parts of the two orbits outside their common stable tails;
    M is the largest |t_i(a)|.
    """
    if a.t != b.t:
        raise ValueError("bounds require equal translation vectors")
    if dec_a is None:
        dec_a = cycle_decomposition(a)
    if dec_b is None:
        dec_b = cycle_decomposition(b)
    pairs = _match_orbits(dec_a, dec_b)
    big_k = 0
    for oa, ob in pairs:
        up = a.t[oa.pos_ray - 1]
        down = -a.t[oa.neg_ray - 1]
        pos_cut = max(oa.pos_cutoff, ob.pos_cutoff)
        neg_cut = max(oa.neg_cutoff, ob.neg_cutoff)
        size_a = (
            oa.spine_len
            + (pos_cut - oa.pos_cutoff) // up
            + (neg_cut - oa.neg_cutoff) // down
        )
        size_b = (
            ob.spine_len
            + (pos_cut - ob.pos_cutoff) // up
            + (neg_cut - ob.neg_cutoff) // down
        )
        big_k = max(big_k, size_a + size_b)
    return BoundData(K=big_k, M=max((abs(v) for v in a.t), default=0))


# -- the full decision ----------------------------------------------------------


def _orbit_index(dec_b: CycleDecomposition):
    """b's infinite orbits by outgoing class, by incoming class and, in
    order, by their two end rays: built once per decision, for the lookups
    of `_class_shifts`."""
    by_pos = {(o.pos_ray, o.pos_residue): o for o in dec_b.infinite_orbits}
    by_neg = {(o.neg_ray, o.neg_residue): o for o in dec_b.infinite_orbits}
    by_ends: Dict[Tuple[int, int], List[InfiniteOrbit]] = {}
    for o in dec_b.infinite_orbits:
        by_ends.setdefault((o.pos_ray, o.neg_ray), []).append(o)
    return by_pos, by_neg, by_ends


def _class_shifts(
    t: Sequence[int], orbits: Sequence[InfiniteOrbit], index_b
) -> List[Tuple[Dict[int, int], bool]]:
    """Every way to pair the orbits of one ends class of a with orbits of b
    residue for residue, as (s, exact): s holds a conjugator's translation
    on the class's rays, solved from the orbit-shift equations of
    `conjugate` with d = 0 on the first orbit, and exact is False when
    those equations give some ray two values of the same residue.
    `index_b` is `_orbit_index` of b's decomposition."""
    by_pos, by_neg, by_ends = index_b
    head = orbits[0]
    found = []
    for first in by_ends.get((head.pos_ray, head.neg_ray), ()):
        s: Dict[int, int] = {}
        exact = True
        for oa in orbits:
            up, down = t[oa.pos_ray - 1], t[oa.neg_ray - 1]
            if oa is head:
                ob = first
            elif oa.pos_ray in s:
                ob = by_pos[(oa.pos_ray, (oa.pos_residue + s[oa.pos_ray]) % up)]
            else:
                ob = by_neg[(oa.neg_ray, (oa.neg_residue + s[oa.neg_ray]) % -down)]
            if (ob.pos_ray, ob.neg_ray) != (oa.pos_ray, oa.neg_ray):
                break
            sides = (
                (oa.pos_ray, up, ob.pos_cutoff - oa.pos_cutoff),
                (oa.neg_ray, down, ob.neg_cutoff - oa.neg_cutoff - down * (oa.spine_len - ob.spine_len)),
            )
            d = next(((s[ray] - c) // step for ray, step, c in sides if ray in s), 0)
            values = [(ray, step, step * d + c) for ray, step, c in sides]
            if any(ray in s and (s[ray] - value) % step for ray, step, value in values):
                break
            for ray, _, value in values:
                if s.setdefault(ray, value) != value:
                    exact = False
        else:
            found.append((s, exact))
    return found


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
    on E.

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
    choice of every class.  When some class has no exact choice, the tag
    needs only the sums of s mod g, with g = gcd(t) when every ray moves
    and 1 otherwise: one pass over the classes collects the sums they
    reach together, in classes x choices x g steps, and the answer is
    orbit-shift-mismatch when 0 is among them, else orbit-pairing-mismatch.
    With v of translation -s, x v has zero translation, so
    fsym_conjugate(a, v^-1 b v) finds a witness y, and x = y v^-1 is
    verified exactly.  A refusal there, or a nonzero sum(s) when every ray
    moves, would contradict the existence argument and raises RuntimeError.
    """
    if a.n != b.n:
        raise ValueError("elements live in different H_n")
    if a.t != b.t:
        return _no(TRANSLATION_MISMATCH)
    dec_a = cycle_decomposition(a)
    dec_b = cycle_decomposition(b)
    if dec_a.cycle_type() != dec_b.cycle_type() or fixed_point_count(a) != fixed_point_count(b):
        return _no(CYCLE_TYPE_MISMATCH)

    modulus = gcd(*a.t) if 0 not in a.t else 1
    index_b = _orbit_index(dec_b)
    per_class = [_class_shifts(a.t, orbits, index_b) for orbits in _ends_classes(dec_a.infinite_orbits)]
    firsts = [next((part for part, exact in options if exact), None) for options in per_class]
    if None in firsts:
        sums = {0}  # the sums of s mod g that the classes reach together
        for options in per_class:
            totals = {sum(part.values()) for part, _ in options}
            sums = {(q + r) % modulus for q in sums for r in totals}
        return _no(ORBIT_SHIFT_MISMATCH if 0 in sums else ORBIT_PAIRING_MISMATCH)
    s = [0] * a.n
    for part in firsts:
        for ray, value in part.items():
            s[ray - 1] = value
    if 0 in a.t:
        s[a.t.index(0)] -= sum(s)
    elif sum(s):
        raise RuntimeError("exact orbit shifts with sum %d while every ray moves" % sum(s))
    v = construct_translation_element(a.n, [-si for si in s])
    b_v = conjugate_element(b, v)
    dec_bv = cycle_decomposition(b_v)
    out = fsym_conjugate(a, b_v, dec_a=dec_a, dec_b=dec_bv)
    if not out.is_conjugate:
        raise RuntimeError("consistent orbit shifts refused by fsym_conjugate: %s" % out.reason)
    x = compose(out.conjugator, inverse(v))
    return _yes(x, verified=verify(a, b, x), bounds=compute_bounds(a, b_v, dec_a=dec_a, dec_b=dec_bv))
