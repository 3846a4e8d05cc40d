"""Cycle and orbit analysis for elements of H_n.

Every infinite orbit is, up to finitely many points, the union of two
arithmetic progressions: an outgoing one on a ray with positive translation
and an incoming one on a ray with negative translation.  We represent an
infinite orbit by those two residue classes, the minimal offsets from which
each progression is stable (no exception of the element at or beyond the
cutoff within the class), and the explicit finite spine in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .core import HoughtonElement, Point, apply, inverse

_TRACE_LIMIT = 10_000_000


@dataclass(frozen=True)
class InfiniteOrbit:
    pos_ray: int
    pos_residue: int
    pos_cutoff: int
    neg_ray: int
    neg_residue: int
    neg_cutoff: int
    spine: Tuple[Point, ...]  # orbit order, excluded from both stable tails


@dataclass(frozen=True)
class CycleDecomposition:
    n: int
    t: Tuple[int, ...]
    finite_cycles: Tuple[Tuple[Point, ...], ...]
    infinite_orbits: Tuple[InfiniteOrbit, ...]

    def cycle_type(self) -> Tuple[Tuple[int, ...], int]:
        """Sorted finite cycle lengths plus the infinite orbit count."""
        return (tuple(sorted(len(c) for c in self.finite_cycles)), len(self.infinite_orbits))

    def successor(self, p: Point) -> Point:
        """Re-apply the decomposition: the image of p under the element."""
        for cycle in self.finite_cycles:
            if p in cycle:
                return cycle[(cycle.index(p) + 1) % len(cycle)]
        for orbit in self.infinite_orbits:
            step = self.t[orbit.pos_ray - 1]
            if (
                p[0] == orbit.pos_ray
                and p[1] >= orbit.pos_cutoff
                and p[1] % step == orbit.pos_residue
            ):
                return (p[0], p[1] + step)
            drop = self.t[orbit.neg_ray - 1]
            if (
                p[0] == orbit.neg_ray
                and p[1] >= orbit.neg_cutoff
                and p[1] % -drop == orbit.neg_residue
            ):
                nxt = (p[0], p[1] + drop)
                if nxt[1] >= orbit.neg_cutoff:
                    return nxt
                # leaving the incoming tail: first spine point, or the
                # outgoing tail directly when the spine is empty
                if orbit.spine:
                    return orbit.spine[0]
                return (orbit.pos_ray, orbit.pos_cutoff)
            if p in orbit.spine:
                k = orbit.spine.index(p)
                if k + 1 < len(orbit.spine):
                    return orbit.spine[k + 1]
                return (orbit.pos_ray, orbit.pos_cutoff)
        return p


@dataclass(frozen=True)
class EndsPartition:
    classes: Tuple[FrozenSet[int], ...]

    def class_of(self, ray: int) -> FrozenSet[int]:
        for cls in self.classes:
            if ray in cls:
                return cls
        raise KeyError("ray %d is almost fixed (not in I)" % ray)


def _per_class_cutoffs(g: HoughtonElement) -> Dict[Tuple[int, int], int]:
    """Minimal stable offset for each residue class of a moving ray.

    Beyond the cutoff no exception of g (domain or range) meets the class,
    so g acts there by pure translation and orbit tails are undisturbed.
    """
    last: Dict[Tuple[int, int], int] = {}
    for p, q in g.exceptions.items():
        for i, m in (p, q):
            if g.t[i - 1] != 0:
                step = abs(g.t[i - 1])
                key = (i, m % step)
                last[key] = max(last.get(key, -1), m)
    cutoffs = {}
    for i in range(1, g.n + 1):
        step = abs(g.t[i - 1])
        for r in range(step):
            top = last.get((i, r), -1)
            cutoffs[(i, r)] = r if top < 0 else top + step
    return cutoffs


def cycle_decomposition(g: HoughtonElement) -> CycleDecomposition:
    ginv = inverse(g)
    dom = g.exceptions

    # finite cycles: every nontrivial finite cycle passes through the
    # exception domain, so seeding traces there finds them all.  A trail
    # that reaches a point of an earlier escaped trail is on that same
    # infinite orbit, because a finite cycle cannot be entered from outside
    max_dom = [-1] * (g.n + 1)
    for (i, m) in dom:
        max_dom[i] = max(max_dom[i], m)
    finite: List[Tuple[Point, ...]] = []
    seen = set()
    for start in sorted(dom):
        if start in seen:
            continue
        trail = [start]
        cur = apply(g, start)
        escaped = False
        while cur != start:
            i, m = cur
            if cur in seen or (g.t[i - 1] > 0 and m > max_dom[i]):
                escaped = True  # on an infinite orbit
                break
            trail.append(cur)
            cur = apply(g, cur)
            if len(trail) > _TRACE_LIMIT:
                raise RuntimeError("orbit trace did not terminate")
        seen.update(trail)
        if escaped:
            continue
        if len(trail) >= 2:
            k = trail.index(min(trail))
            finite.append(tuple(trail[k:] + trail[:k]))
    finite.sort(key=lambda c: c[0])

    cutoffs = _per_class_cutoffs(g)
    orbits: List[InfiniteOrbit] = []
    used_neg = set()
    for i in range(1, g.n + 1):
        step = g.t[i - 1]
        if step <= 0:
            continue
        for r in range(step):
            start = (i, cutoffs[(i, r)])
            spine_rev: List[Point] = []
            cur = apply(ginv, start)
            while True:
                j, m = cur
                drop = g.t[j - 1]
                if drop < 0 and m >= cutoffs[(j, m % -drop)]:
                    break
                spine_rev.append(cur)
                cur = apply(ginv, cur)
                if len(spine_rev) > _TRACE_LIMIT:
                    raise RuntimeError("orbit trace did not terminate")
            j, m = cur
            s = m % -g.t[j - 1]
            neg_key = (j, s)
            if neg_key in used_neg:
                raise RuntimeError("incoming residue class claimed twice")
            used_neg.add(neg_key)
            orbits.append(
                InfiniteOrbit(
                    pos_ray=i,
                    pos_residue=r,
                    pos_cutoff=cutoffs[(i, r)],
                    neg_ray=j,
                    neg_residue=s,
                    neg_cutoff=cutoffs[neg_key],
                    spine=tuple(reversed(spine_rev)),
                )
            )
    return CycleDecomposition(g.n, g.t, tuple(finite), tuple(orbits))


def infinite_orbit_count(g: HoughtonElement) -> int:
    total = sum(abs(v) for v in g.t)
    if total % 2:
        raise RuntimeError("odd total translation mass: invariant violated")
    return total // 2


def cycle_type(g: HoughtonElement) -> Tuple[Tuple[int, ...], int]:
    """Multiset of finite cycle lengths plus infinite orbit count.

    Fixed points are not part of it.  An element with some t_i = 0 fixes
    infinitely many points, but one whose rays all move fixes only its
    exception entries p -> p, and two elements can agree here yet differ
    in that number; fixed_point_count gives it.
    """
    return cycle_decomposition(g).cycle_type()


def fixed_point_count(g: HoughtonElement) -> Optional[int]:
    """Number of fixed points, or None when it is infinite (some t_i = 0).

    When every ray moves, a point off the exception table is translated,
    so the fixed points are exactly the exception entries p -> p.
    """
    if 0 in g.t:
        return None
    return sum(1 for p, q in g.exceptions.items() if p == q)


def sym_conjugate(a: HoughtonElement, b: HoughtonElement) -> bool:
    """Conjugacy in the full symmetric group: equal cycle types and equal
    numbers of fixed points."""
    if a.n != b.n:
        raise ValueError("elements live in different H_n")
    return cycle_type(a) == cycle_type(b) and fixed_point_count(a) == fixed_point_count(b)


def ends_partition(g: HoughtonElement) -> EndsPartition:
    moving = [i for i in range(1, g.n + 1) if g.t[i - 1] != 0]
    parent = {i: i for i in moving}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for orbit in cycle_decomposition(g).infinite_orbits:
        ra, rb = find(orbit.pos_ray), find(orbit.neg_ray)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: Dict[int, List[int]] = {}
    for i in moving:
        groups.setdefault(find(i), []).append(i)
    classes = tuple(frozenset(v) for _, v in sorted(groups.items()))
    return EndsPartition(classes)
