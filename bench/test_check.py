"""Self-test of the benchmark's own checker and cap.

    python3 bench/test_check.py        (or: python3 -m pytest bench/test_check.py)
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import houghton as H  # noqa: E402

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# a = ((1,0) (1,1)), x = ((1,1) (1,2)), so x^-1 a x = ((1,0) (1,2))
SWAP_A = (2, (0, 0), {(1, 0): (1, 1), (1, 1): (1, 0)})
SWAP_X = (2, (0, 0), {(1, 1): (1, 2), (1, 2): (1, 1)})
SWAP_B = (2, (0, 0), {(1, 0): (1, 2), (1, 2): (1, 0)})


def test_accepts_known_good_certificate():
    assert check.is_certificate(SWAP_A, SWAP_B, SWAP_X)


def test_rejects_tampered_certificates():
    wrong_swap = (2, (0, 0), {(1, 1): (1, 3), (1, 3): (1, 1)})
    not_a_bijection = (2, (0, 0), {(1, 1): (1, 2)})
    shifted = (2, (1, -1), {(2, 0): (1, 0)})
    for x in (wrong_swap, not_a_bijection, shifted):
        assert not check.is_certificate(SWAP_A, SWAP_B, x)
    assert not check.is_certificate(SWAP_A, SWAP_A, SWAP_X)


def test_library_certificates_accepted_and_tampered_rejected():
    rejected = 0
    for k in range(30):
        a, b = workloads._roundtrip_pair(H, k)
        out = H.conjugate(a, b)
        ta, tb, tx = check.table_of(a), check.table_of(b), check.table_of(out.conjugator)
        assert check.is_certificate(ta, tb, tx)
        items = sorted(tx[2].items())
        if len(items) < 2:
            continue
        (p, q), (r, s) = items[0], items[1]
        exc = dict(tx[2])
        exc[p], exc[r] = s, q  # swapped images: still a bijection
        try:
            x_bad = H.HoughtonElement(tx[0], tx[1], exc)
        except H.InvalidElementError:
            continue  # an entry fell onto the tail rule; not a normal form
        assert check.is_certificate(ta, tb, check.table_of(x_bad)) == H.verify(a, b, x_bad)
        rejected += not H.verify(a, b, x_bad)
    assert rejected >= 10


def test_bijection_check():
    assert check.is_bijection(SWAP_X)
    assert check.is_bijection((3, (1, -1, 0), {(2, 0): (1, 0)}))  # the generator g2
    assert not check.is_bijection((3, (1, -1, 0), {}))  # (2, 0) has no image
    assert not check.is_bijection((2, (0, 0), {(1, 0): (1, 1)}))  # (1, 1) hit twice
    assert not check.is_bijection((2, (1, 0), {}))  # translation does not sum to zero


def test_word_tables_match_evaluation():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.choice((2, 3, 4))
        word = workloads._word(H, rng, n, rng.randint(0, 12))
        assert check.word_table(n, word.letters) == check.table_of(H.evaluate(word))


def test_small_search_finds_a_short_conjugator():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.choice((2, 3))
        a = H.evaluate(workloads._word(H, rng, n, rng.randint(1, 8)))
        w = workloads._word(H, rng, n, 2)
        b = H.conjugate_element(a, H.evaluate(w))
        found = check.small_search(check.table_of(a), check.table_of(b), 3)
        assert found is not None and len(found) <= 2


def test_cap_stops_an_operation_and_keeps_the_clock_fine():
    def spin():
        while True:
            pass

    with run.Sampler(run.SAMPLE_S) as sampler:
        result, status, cpu_s, samples = sampler.time(spin, 0.05)
    assert status == "capped" and 0.05 <= cpu_s < 0.05 + 0.1
    assert samples[1] - samples[0] >= 2  # the speed was sampled while it ran
    # the sampling timer must not coarsen the CPU clock to scheduler ticks
    # (an armed ITIMER_VIRTUAL makes it advance in 4 ms steps)
    with run.Sampler(run.SAMPLE_S):
        steps = []
        last = time.process_time()
        while len(steps) < 100:
            now = time.process_time()
            if now != last:
                steps.append(now - last)
                last = now
    assert min(steps) < 0.001


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print("ok", name)
    print("%d tests passed" % len(tests))
