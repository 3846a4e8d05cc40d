"""The four workloads: how each builds its inputs and checks its answers.

Each workload function receives the imported `houghton` package, the
run's seed and a work directory, and returns the run's operations in a
fixed order.  Inputs are made only through the package's public functions;
the checks use `check.py`, which does not call the package at all.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import check

# same_invariant: the CPU time after which one decision is stopped and
# counted as failed.  Decided pairs of the family finish in <= 40 ms and
# searched negatives need >= 1.4 s, so the cap sits well inside that gap.
CAP_S = 0.2
# Passes over the workload's ops in one round.  An op's CPU time is the
# median of its timings, one per pass.
PASSES = {"roundtrip": 5, "same_invariant": 20, "far_offsets": 5, "oracle": 5}
# roundtrip: size of the fixed pool of (a, a^x) pairs.
ROUNDTRIP_POOL = 400
# oracle: word radius of the brute-force search, and the pairs with a
# witness (one per HIT_EVERY pairs; the rest have different translations).
ORACLE_RADIUS = 4
ORACLE_PAIRS = 200
HIT_EVERY = 3
# far_offsets: (offset, count) of transposition pairs, and the number of
# round-trip pairs moved near offset FAR_SHIFT.
FAR_LADDER = ((10**6, 1), (10**5, 2), (10**4, 15), (10**3, 62))
FAR_SHIFTED = 20
FAR_SHIFT = 1000
BASELINE_PAIR = (
    {"n": 3, "t": [-1, -1, 2], "exceptions": [[[1, 0], [3, 1]], [[2, 0], [3, 0]]]},
    {"n": 3, "t": [-1, -1, 2], "exceptions": [[[1, 0], [3, 0]], [[2, 0], [2, 0]], [[2, 1], [3, 1]]]},
)


@dataclass
class Op:
    """One timed operation: `run` calls the program; `judge` checks its
    answer outside the timed region; `is_yes` reads the decision, or gives
    None for a search that decides nothing."""

    key: str
    run: Callable[[], Any]
    judge: Callable[[Any], bool]
    is_yes: Callable[[Any], Optional[bool]]


def _word(H, rng: random.Random, n: int, length: int, reduced: bool = False):
    """A uniformly random word; with `reduced`, no letter follows its inverse."""
    letters: List = []
    while len(letters) < length:
        c = rng.choice(check.alphabet(n))
        if not (reduced and letters and letters[-1] == check.inverse(c)):
            letters.append(c)
    return H.Word.parse(n, " ".join(g + ("'" if e < 0 else "") for g, e in letters))


def _element(H, doc: dict):
    exc = {tuple(p): tuple(q) for p, q in doc["exceptions"]}
    return H.HoughtonElement(doc["n"], doc["t"], exc)


def _conjugate_op(H, key: str, a, b, expect_yes: bool) -> Op:
    ta, tb = check.table_of(a), check.table_of(b)
    refuted: List[bool] = []  # the small search, run once per pair

    def judge(out) -> bool:
        if out.is_conjugate:
            return out.verified and check.is_certificate(ta, tb, check.table_of(out.conjugator))
        if not refuted:
            refuted.append(not expect_yes and check.small_search(ta, tb, 3) is None)
        return refuted[0]

    return Op(key, lambda: H.conjugate(a, b), judge, lambda out: out.is_conjugate)


def _roundtrip_pair(H, k: int):
    n = (2, 3, 4)[k % 3]
    rng = random.Random("roundtrip:%d" % k)
    a = H.evaluate(_word(H, rng, n, rng.randint(1, 10)))
    x = H.evaluate(_word(H, rng, n, rng.randint(1, 10)))
    return a, H.conjugate_element(a, x)


def roundtrip(H, seed: int, work: Path) -> List[Op]:
    return [_conjugate_op(H, "rt%d" % k, *_roundtrip_pair(H, k), True) for k in range(ROUNDTRIP_POOL)]


def same_invariant_family(H) -> List:
    """The same-invariant recipe: random words of length <= 10 for
    n = 2, 3, 4 grouped by (t, cycle_type), the first 4 distinct elements
    of each group, all their pairs; then the pair on which sym_conjugate
    is wrong."""
    pairs = []
    for n in (2, 3, 4):
        groups: Dict = {}
        for k in range(100):
            g = H.evaluate(_word(H, random.Random("same_invariant:%d:%d" % (n, k)), n, 1 + k % 10))
            group = groups.setdefault((g.t, H.cycle_type(g)), [])
            if g not in group and len(group) < 4:
                group.append(g)
        for gi, group in enumerate(groups.values()):
            for (i, a), (j, b) in itertools.combinations(enumerate(group), 2):
                pairs.append(("n%d-g%d-%d%d" % (n, gi, i, j), a, b))
    pairs.append(("baseline", _element(H, BASELINE_PAIR[0]), _element(H, BASELINE_PAIR[1])))
    return pairs


def same_invariant(H, seed: int, work: Path) -> List[Op]:
    return [_conjugate_op(H, key, a, b, False) for key, a, b in same_invariant_family(H)]


def _lift(H, n: int, shift: int, width: int):
    """The finite-support swap (i, m) <-> (i, shift + m), m < width, on every ray."""
    exc = {}
    for i in range(1, n + 1):
        for m in range(width):
            exc[(i, m)], exc[(i, shift + m)] = (i, shift + m), (i, m)
    return H.HoughtonElement(n, (0,) * n, exc)


def _transposition(H, rng: random.Random, n: int, offset: int):
    """A transposition of two points on different rays, within 1 % plus 8
    above `offset`."""
    i, j = rng.sample(range(1, n + 1), 2)
    base = offset + rng.randrange(offset // 100)
    p, q = (i, base + rng.randrange(8)), (j, base + rng.randrange(8))
    return H.HoughtonElement(n, (0,) * n, {p: q, q: p})


def far_offsets(H, seed: int, work: Path) -> List[Op]:
    rng = random.Random(seed)
    pairs = []
    for k in range(FAR_SHIFTED):
        a, b = _roundtrip_pair(H, 3 * k)  # the H_2 pairs of the roundtrip pool
        width = 1 + max(a.max_exception_offset(), b.max_exception_offset())
        y = _lift(H, 2, FAR_SHIFT + rng.randrange(FAR_SHIFT // 100), width)
        pairs.append(("shift%d" % k, H.conjugate_element(a, y), H.conjugate_element(b, y)))
    for offset, count in FAR_LADDER:
        for k in range(count):
            n = 2 + k % 3
            pairs.append(("swap%d-%d" % (offset, k), _transposition(H, rng, n, offset), _transposition(H, rng, n, offset)))
    cli = importlib.import_module("houghton.cli")
    ops = []
    for key, a, b in pairs:
        docs = [H.serialize(a), H.serialize(b)]
        paths = [work / ("%s-%s.json" % (key, name)) for name in "ab"]
        for path, text in zip(paths, docs):
            path.write_text(text, encoding="utf-8")
        ops.append(_cli_op(cli, key, [str(p) for p in paths], docs))
    return ops


def _cli_op(cli, key: str, paths: List[str], docs: List[str]) -> Op:
    ta, tb = (check.table_of_doc(json.loads(text)) for text in docs)

    def run():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["conj"] + paths)
        return code, out.getvalue()

    def judge(result) -> bool:
        code, text = result
        doc = json.loads(text)
        return (
            code == 0
            and doc["decision"] == "yes"
            and doc["verified"] is True
            and check.is_certificate(ta, tb, check.table_of_doc(doc["certificate"]))
        )

    return Op(key, run, judge, lambda result: json.loads(result[1])["decision"] == "yes")


def oracle(H, seed: int, work: Path) -> List[Op]:
    budget = H.SearchBudget(ORACLE_RADIUS)
    ops = []
    for k in range(ORACLE_PAIRS):
        rng = random.Random("oracle:%d" % k)
        a = H.evaluate(_word(H, rng, 3, rng.randint(1, 8)))
        if k % HIT_EVERY == 0:
            w = _word(H, rng, 3, rng.randint(ORACLE_RADIUS - 2, ORACLE_RADIUS), reduced=True)
            ops.append(_oracle_op(H, "hit%d" % k, a, H.conjugate_element(a, H.evaluate(w)), budget, True))
            continue
        b = a
        while b.t == a.t:
            b = H.evaluate(_word(H, rng, 3, rng.randint(1, 8)))
        ops.append(_oracle_op(H, "miss%d" % k, a, b, budget, False))
    return ops


def _oracle_op(H, key: str, a, b, budget, expect_found: bool) -> Op:
    ta, tb = check.table_of(a), check.table_of(b)

    def judge(word) -> bool:
        if word is None:
            return not expect_found
        return expect_found and check.is_certificate(ta, tb, check.word_table(a.n, word.letters))

    return Op(key, lambda: H.brute_force_conjugator(a, b, budget), judge, lambda word: None)


WORKLOADS = {
    "roundtrip": roundtrip,
    "same_invariant": same_invariant,
    "far_offsets": far_offsets,
    "oracle": oracle,
}
