import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import houghton
from houghton import HoughtonElement, compose, conjugate_element, evaluate, generator, serialize
from houghton import cli
from houghton.cli import main
from houghton.oracle import random_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_element(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(serialize(g), encoding="utf-8")
    return str(path)


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "-n", "3", "g2")
    assert code == 0
    assert json.loads(out) == {"n": 3, "t": [1, -1, 0], "exceptions": [[[2, 0], [1, 0]]]}


def test_eval_requires_n(capsys):
    code, _, err = run(capsys, "eval", "g2")
    assert code == 2
    assert "error" in err


def test_eval_pretty(capsys):
    code, out, _ = run(capsys, "eval", "-n", "3", "--pretty", "g2")
    assert code == 0
    assert "t = (1, -1, 0)" in out


def test_mul_and_inv(capsys, tmp_path):
    g2 = write_element(tmp_path, "g2.json", generator(3, "g2"))
    g3 = write_element(tmp_path, "g3.json", generator(3, "g3"))
    code, out, _ = run(capsys, "mul", g2, g3)
    assert code == 0
    assert json.loads(out)["t"] == [2, -1, -1]
    code, out, _ = run(capsys, "inv", g2)
    assert code == 0
    assert json.loads(out)["t"] == [-1, 1, 0]


def test_apply(capsys, tmp_path):
    g2 = write_element(tmp_path, "g2.json", generator(3, "g2"))
    code, out, _ = run(capsys, "apply", g2, "2", "0")
    assert code == 0
    assert out.strip() == "(1,0)"


def test_orbits(capsys, tmp_path):
    g2 = write_element(tmp_path, "g2.json", generator(3, "g2"))
    code, out, _ = run(capsys, "orbits", g2)
    assert code == 0
    assert out.strip() == "[(2,0)<-tail | (2,0) (1,0) | tail->(1,0)]"


def test_ends(capsys, tmp_path):
    g2 = write_element(tmp_path, "g2.json", generator(3, "g2"))
    code, out, _ = run(capsys, "ends", g2)
    assert code == 0
    assert out.strip() == "{1,2}"


def test_conj_yes(capsys, tmp_path):
    g2 = write_element(tmp_path, "g2.json", generator(3, "g2"))
    code, out, _ = run(capsys, "conj", g2, g2)
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"] == "yes"
    assert doc["verified"] is True
    assert "certificate" in doc


def test_conj_no_with_reason(capsys, tmp_path):
    g2 = write_element(tmp_path, "g2.json", generator(3, "g2"))
    g3 = write_element(tmp_path, "g3.json", generator(3, "g3"))
    code, out, _ = run(capsys, "conj", g2, g3)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"decision": "no", "reason": "translation-mismatch"}


def test_verify_command(capsys, tmp_path):
    g2 = write_element(tmp_path, "g2.json", generator(3, "g2"))
    g3 = write_element(tmp_path, "g3.json", generator(3, "g3"))
    code, out, _ = run(capsys, "verify", g2, g2, g3)
    assert code == 0
    assert json.loads(out) == {"decision": "no"}


def test_oracle_command(capsys, tmp_path):
    g2 = write_element(tmp_path, "g2.json", generator(3, "g2"))
    code, out, _ = run(capsys, "oracle", g2, g2, "--budget", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True and doc["word"] == ""


def test_oracle_command_searches_radius_14_quickly(capsys, tmp_path):
    # the ball of radius 14 in H_3 has 9,565,937 reduced words, within the
    # default cap, so it is searched from two half-balls of radius 7
    g2 = write_element(tmp_path, "g2.json", generator(3, "g2"))
    g3 = write_element(tmp_path, "g3.json", generator(3, "g3"))
    started = time.process_time()
    code, out, _ = run(capsys, "oracle", g2, g3, "--budget", "14")
    assert time.process_time() - started < 2.0
    assert code == 0 and json.loads(out) == {"found": False}


def test_oracle_command_refuses_a_budget_over_the_cap(capsys, tmp_path):
    # the ball of radius 15 in H_3 has 28,697,813 reduced words, more than
    # the default cap, so no exact search is possible: exit 2 at once,
    # naming the limit, where radius 14 is still searched
    g2 = write_element(tmp_path, "g2.json", generator(3, "g2"))
    g3 = write_element(tmp_path, "g3.json", generator(3, "g3"))
    started = time.process_time()
    code, out, err = run(capsys, "oracle", g2, g3, "--budget", "15")
    assert time.process_time() - started < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "limit of 14" in err and "10000000" in err
    code, out, _ = run(capsys, "oracle", g2, g3, "--budget", "14")
    assert code == 0 and json.loads(out) == {"found": False}


def package_env():
    """The environment, with this package first on PYTHONPATH, for a
    process of its own."""
    src = os.path.dirname(os.path.dirname(houghton.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def run_limited(cwd, *argv, limit_mb=512, cpu_s=None):
    """`houghton` in a process of its own under an address-space limit of
    `limit_mb` MB, and of `cpu_s` CPU seconds if given: (exit code, stdout,
    stderr).  A process that reaches the CPU limit is killed by a signal,
    so its exit code is negative."""
    resource = pytest.importorskip("resource")
    limit = limit_mb << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        if cpu_s is not None:
            resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s + 1))

    done = subprocess.run(
        [sys.executable, "-m", "houghton.cli", *argv],
        cwd=cwd, env=package_env(), capture_output=True, text=True, preexec_fn=cap_memory, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize(
    "n, budget, oracle_code",
    [pytest.param(2000, 1, 0, id="2000-0"), pytest.param(20000, 1, 0, id="20000-0"),
     pytest.param(200000, 2, 2, id="200000-2")],
)
def test_large_n_runs_in_bounded_memory(tmp_path, n, budget, oracle_code):
    # a one-letter word costs O(1) per letter whatever n is, conj decides
    # g2 against itself, and the oracle keeps each letter's table and
    # steps in O(1) size: it searches the radius-1 ball in H_2,000 and
    # H_20,000, and refuses the radius-2 ball of H_200,000 (about 1.6 *
    # 10^11 reduced words) at once; no run may end in a traceback
    for gid in ("g2", "g3"):
        code, out, err = run_limited(tmp_path, "eval", "-n", str(n), gid)
        assert code == 0 and "Traceback" not in err
        assert json.loads(out)["t"][:3] == ([1, -1, 0] if gid == "g2" else [1, 0, -1])
        (tmp_path / (gid + ".json")).write_text(out, encoding="utf-8")
    code, out, err = run_limited(tmp_path, "conj", "g2.json", "g2.json")
    doc = json.loads(out)
    assert (code, doc["decision"], doc["verified"]) == (0, "yes", True) and "Traceback" not in err
    code, out, err = run_limited(tmp_path, "oracle", "g2.json", "g3.json", "--budget", str(budget))
    assert code == oracle_code and "Traceback" not in err
    if oracle_code == 0:
        assert json.loads(out) == {"found": False}
    else:
        assert out == "" and err.startswith("error: budget 2 is over the limit of 1 in H_%d" % n)
    if n == 2000:
        # H_2,000's letter tables and steps and the search fit in 128 MB
        code, out, err = run_limited(
            tmp_path, "oracle", "g2.json", "g3.json", "--budget", "1", limit_mb=128
        )
        assert (code, json.loads(out)) == (0, {"found": False}) and "Traceback" not in err


def test_running_out_of_memory_is_data_error(tmp_path):
    # the translation vector of H_1,000,000,000 does not fit in 512 MB:
    # the command exits 2 with one error line, not a traceback
    code, out, err = run_limited(tmp_path, "eval", "-n", "1000000000", "g2")
    assert (code, out) == (2, "") and err == "error: out of memory\n"


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(serialize(generator(3, "g2"))))
    code, out, _ = run(capsys, "inv", "-")
    assert code == 0
    assert json.loads(out)["t"] == [-1, 1, 0]


def test_n_mismatch_is_data_error(capsys, tmp_path):
    g2 = write_element(tmp_path, "g2.json", generator(3, "g2"))
    code, _, err = run(capsys, "inv", "-n", "2", g2)
    assert code == 2
    assert "n=3" in err


@pytest.mark.parametrize("command", ["mul", "conj", "verify", "oracle"])
def test_elements_of_different_n_are_refused_once(capsys, tmp_path, command):
    # with no -n given, the pair check names both groups
    a2 = write_element(tmp_path, "a2.json", generator(2, "g2"))
    a3 = write_element(tmp_path, "a3.json", generator(3, "g2"))
    args = [a2, a3, a2] if command == "verify" else [a2, a3]
    code, out, err = run(capsys, command, *args)
    assert (code, out) == (2, "")
    assert err == "error: elements live in different H_n: n=2 and n=3\n"


def test_pretty_is_taken_only_where_it_renders(capsys, tmp_path):
    # elsewhere it is a usage error, on arguments that run without it
    g2 = write_element(tmp_path, "g2.json", generator(3, "g2"))
    takes = {"eval": ["-n", "3", "g2"], "mul": [g2, g2], "inv": [g2], "conj": [g2, g2]}
    refuses = {
        "apply": [g2, "1", "0"],
        "orbits": [g2],
        "ends": [g2],
        "verify": [g2, g2, g2],
        "oracle": [g2, g2, "--budget", "1"],
    }
    for command, args in takes.items():
        assert run(capsys, command, "--pretty", *args)[0] == 0, command
    for command, args in refuses.items():
        assert run(capsys, command, "--pretty", *args)[0] == 1, command
        assert run(capsys, command, *args)[0] == 0, command


def test_invalid_json_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    code, _, err = run(capsys, "inv", str(bad))
    assert code == 2


def test_missing_file_is_data_error(capsys, tmp_path):
    code, _, _ = run(capsys, "inv", str(tmp_path / "nope.json"))
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_command_usage_exit_codes(capsys, tmp_path):
    # a command's arguments are parsed by its own parser: no command, a
    # missing positional and an extra argument are usage errors (exit 1),
    # and a command's --help exits 0
    g2 = write_element(tmp_path, "g2.json", generator(3, "g2"))
    code, out, err = run(capsys)
    assert (code, out) == (1, "") and "required: command" in err
    code, out, err = run(capsys, "conj", g2)
    assert (code, out) == (1, "") and "required: b" in err
    code, out, err = run(capsys, "conj", g2, g2, "extra")
    assert (code, out) == (1, "") and err.endswith("houghton conj: error: unrecognized arguments: extra\n")
    code, out, err = run(capsys, "conj", "--help")
    assert (code, err) == (0, "") and out.startswith("usage: houghton conj ")


def usage_lines():
    """77 command lines that end in help, a usage error or an error from
    the command: help and no arguments at the top level, an unknown command,
    an option before the command, and for each command its help, no
    positionals, four positionals, -n with no value and with a value that
    is not an int, an abbreviated option, an abbreviated --budget and a
    positional after "--"."""
    lines = [["--help"], ["-h"], [], ["no-such-command"], ["-n", "3"]]
    for command in ("eval", "mul", "inv", "apply", "orbits", "ends", "conj", "verify", "oracle"):
        lines += [
            [command, "--help"], [command], [command, "a", "b", "c", "d"], [command, "-n"], [command, "-n", "x"],
            [command, "--pre"], [command, "--bud", "3"], [command, "--", "-1"],
        ]
    return lines


def test_help_and_usage_texts_are_pinned(capsys, monkeypatch, tmp_path):
    # every exit code and every byte of stdout and stderr on these command
    # lines at a width of 80 columns, recorded before each command's action
    # moved into the grammar table
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    lines = usage_lines()
    digest = hashlib.sha256()
    for argv in lines:
        digest.update(json.dumps(run(capsys, *argv)).encode())
    assert len(lines) == 77
    assert digest.hexdigest() == "ac521c124f3748f7799068fc7b90a7186267ed559bcdbc2b16071cb9a4b88824"


@pytest.mark.parametrize("offset", [10**8, 10**9])
def test_conj_far_offsets(capsys, tmp_path, offset):
    # two 2-point transpositions: the decision must not scan up to the offset
    def conj_at(base):
        a = HoughtonElement(2, (0, 0), {(1, base): (2, base + 3), (2, base + 3): (1, base)})
        b = HoughtonElement(2, (0, 0), {(1, base + 5): (2, base + 1), (2, base + 1): (1, base + 5)})
        paths = [write_element(tmp_path, "%s-%d.json" % (name, base), g) for name, g in (("a", a), ("b", b))]
        started = time.monotonic()
        code, out, _ = run(capsys, "conj", *paths)
        return code, json.loads(out), time.monotonic() - started

    code, far, elapsed = conj_at(offset)
    assert code == 0 and elapsed < 2.0
    assert far["decision"] == "yes" and far["verified"] is True
    _, near, _ = conj_at(10)
    shift = offset - 10
    moved = [[[i, m - shift], [j, k - shift]] for (i, m), (j, k) in far["certificate"]["exceptions"]]
    assert far["certificate"]["t"] == near["certificate"]["t"]
    assert moved == near["certificate"]["exceptions"]


# g2 g3 times a finite-support permutation: a finite cycle that runs down
# ray 3, and an orbit whose spine has runs on rays 2, 3 and 1
MULTI_RUN = (
    '{"n":3,"t":[2,-1,-1],"exceptions":[[[1,1],[3,4]],[[2,0],[1,1]],[[2,2],[3,0]],[[2,8],[2,8]],'
    '[[2,9],[2,7]],[[3,0],[1,0]],[[3,1],[2,1]],[[3,5],[1,3]]]}'
)


def test_orbits_multi_run_spine(capsys, tmp_path):
    path = tmp_path / "h.json"
    path.write_text(MULTI_RUN, encoding="utf-8")
    code, out, _ = run(capsys, "orbits", str(path))
    assert code == 0
    assert out == (
        "((1,1) (3,4) (3,3) (3,2) (3,1) (2,1) (2,0))\n"
        "[(2,0)<-tail | (2,9) (2,7) (2,6) (2,5) (2,4) (2,3) (2,2) (3,0) (1,0) | tail->(1,0)]\n"
        "[(3,0)<-tail | (3,5) (1,3) | tail->(1,1)]\n"
    )


def test_orbits_walk_limit_exits_2(capsys, tmp_path, monkeypatch):
    # a walk that reaches its limit is refused like bad input, not with a traceback
    from houghton import orbits

    path = tmp_path / "h.json"
    path.write_text(MULTI_RUN, encoding="utf-8")
    monkeypatch.setattr(orbits, "_TRACE_LIMIT", 1)
    code, out, err = run(capsys, "orbits", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_orbits_spine_beyond_limit_exits_2(capsys, tmp_path, monkeypatch):
    # the decomposition takes 3 runs, but listing the spine would take 102 points
    from houghton import orbits

    swap = HoughtonElement(2, (0, 0), {(1, 100): (1, 101), (1, 101): (1, 100)})
    path = write_element(tmp_path, "g.json", compose(generator(2, "g2"), swap))
    monkeypatch.setattr(orbits, "_TRACE_LIMIT", 50)
    code, out, err = run(capsys, "orbits", path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert "more than 50 steps" in err


def test_orbits_cycle_beyond_limit_exits_2(capsys, tmp_path, monkeypatch):
    # the decomposition holds the one finite cycle in 2 runs, but listing it
    # would take 103 points; conj and ends never list it
    from houghton import orbits

    swap = HoughtonElement(2, (0, 0), {(1, 51): (2, 51), (2, 51): (1, 51)})
    path = write_element(tmp_path, "g.json", compose(generator(2, "g2"), swap))
    monkeypatch.setattr(orbits, "_TRACE_LIMIT", 50)
    code, out, err = run(capsys, "orbits", path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert "more than 50 steps" in err
    code, out, err = run(capsys, "conj", path, path)
    assert code == 0 and err == ""
    assert json.loads(out)["verified"] is True
    code, out, err = run(capsys, "ends", path)
    assert (code, out, err) == (0, "{1,2}\n", "")


@pytest.mark.parametrize("value", ["Infinity", "NaN", "1.5", "true"])
@pytest.mark.parametrize(
    "doc",
    [
        '{"n":2,"t":[%s,-1],"exceptions":[[[2,0],[1,0]]]}',
        '{"n":2,"t":[0,0],"exceptions":[[[1,%s],[2,0]],[[2,0],[1,1]]]}',
    ],
    ids=["t", "point"],
)
def test_non_integer_values_exit_2(capsys, tmp_path, doc, value):
    path = tmp_path / "bad.json"
    path.write_text(doc % value, encoding="utf-8")
    code, out, err = run(capsys, "orbits", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_conj_moving_ray_far_offset(capsys, tmp_path):
    # g2 times a transposition far up the outgoing ray: 3 table entries, but
    # an orbit spine of D + 2 points, which the decision must not walk
    def moved(d):
        swap = HoughtonElement(2, (0, 0), {(1, d): (1, d + 1), (1, d + 1): (1, d)})
        return write_element(tmp_path, "g%d.json" % d, compose(generator(2, "g2"), swap))

    d = 10**9
    paths = [moved(d), moved(d + 5)]
    started = time.process_time()
    code, out, _ = run(capsys, "conj", *paths)
    assert time.process_time() - started < 0.1
    doc = json.loads(out)
    assert code == 0 and doc["decision"] == "yes" and doc["verified"] is True


def test_conj_far_swap_of_g2_has_a_short_certificate(capsys, tmp_path):
    # g2 against its conjugate by the swap of (1, D) and (1, D + 7): that
    # swap conjugates them, so neither the certificate nor the work may
    # follow D
    d = 10**9
    g2 = generator(2, "g2")
    swap = HoughtonElement(2, (0, 0), {(1, d): (1, d + 7), (1, d + 7): (1, d)})
    paths = [write_element(tmp_path, "a.json", g2), write_element(tmp_path, "b.json", conjugate_element(g2, swap))]
    started = time.process_time()
    code, out, _ = run(capsys, "conj", *paths)
    assert time.process_time() - started < 0.1
    doc = json.loads(out)
    assert code == 0 and doc["decision"] == "yes" and doc["verified"] is True
    assert len(doc["certificate"]["exceptions"]) <= 2


def test_repeated_calls_match_first_calls(capsys, tmp_path):
    # later calls must not see state left by earlier ones
    g2 = write_element(tmp_path, "g2.json", generator(3, "g2"))
    calls = [["conj", "--pretty", g2, g2], ["conj", g2, g2], ["eval", "-n", "3", "g2"], ["--help"]]
    first = []
    for argv in calls:
        first.append(run(capsys, *argv))
    assert [run(capsys, *argv) for argv in calls] == first
    assert [code for code, _, _ in first] == [0, 0, 0, 0]


def test_conj_refuses_a_point_that_is_not_an_array(capsys, tmp_path):
    # read as a pair, the string "21" would be the point (2, 1)
    path = tmp_path / "str.json"
    path.write_text('{"n":2,"t":[0,0],"exceptions":[[[1,0],"21"],[[2,1],[1,0]]]}', encoding="utf-8")
    code, out, err = run(capsys, "conj", str(path), str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: bad exception entry ") and "Traceback" not in err


def test_deep_nesting_is_data_error(tmp_path):
    # json.loads gives up on 100,000 nested arrays with a RecursionError;
    # the command exits 2 with one error line, not a traceback
    (tmp_path / "deep.json").write_text("[" * 100000, encoding="utf-8")
    code, out, err = run_limited(tmp_path, "inv", "deep.json")
    assert (code, out) == (2, "") and "Traceback" not in err
    assert err.startswith("error: not valid JSON: ") and err.count("\n") == 1


def stdout_pairs():
    """Pairs for `houghton conj`: transpositions at offsets 10^3..10^6 in
    H_2..H_4, H_2 round trips moved near offset 1,000 by a swap, and pairs
    that are not conjugate."""
    rng = random.Random("conj-stdout")
    pairs = []

    def transposition(n, offset):
        i, j = rng.sample(range(1, n + 1), 2)
        base = offset + rng.randrange(offset // 100)
        p, q = (i, base + rng.randrange(8)), (j, base + rng.randrange(8))
        return HoughtonElement(n, (0,) * n, {p: q, q: p})

    for offset in (10**3, 10**4, 10**5, 10**6):
        for n in (2, 3, 4):
            pairs.append((transposition(n, offset), transposition(n, offset)))
    for k in range(12):
        a = evaluate(random_word(2, k, 1 + k % 10))
        b = conjugate_element(a, evaluate(random_word(2, 100 + k, 1 + (3 * k) % 10)))
        width = 1 + max(a.max_exception_offset(), b.max_exception_offset())
        shift = 1000 + rng.randrange(10)
        swap = {}
        for i in (1, 2):
            for m in range(width):
                swap[(i, m)], swap[(i, shift + m)] = (i, shift + m), (i, m)
        y = HoughtonElement(2, (0, 0), swap)
        pairs.append((conjugate_element(a, y), conjugate_element(b, y)))
    for k in range(24):
        n = 2 + k % 3
        a = evaluate(random_word(n, 200 + k, 2 + k % 6))
        b = evaluate(random_word(n, 300 + k, 2 + k % 6)) if k % 2 else compose(a, transposition(n, 1000))
        pairs.append((a, b))
    return pairs


def test_conj_stdout_is_pinned(capsys, tmp_path):
    # every byte `houghton conj` prints on these pairs, recorded before the
    # documents were read as bytes and the outcome encoder was shared
    digest = hashlib.sha256()
    decisions = set()
    for k, (a, b) in enumerate(stdout_pairs()):
        paths = [write_element(tmp_path, "%d%s.json" % (k, name), g) for name, g in (("a", a), ("b", b))]
        code, out, err = run(capsys, "conj", *paths)
        assert code == 0 and err == ""
        decisions.add(json.loads(out)["decision"])
        digest.update(out.encode())
    assert decisions == {"yes", "no"}
    assert digest.hexdigest() == "cbd2ee985e56e4e5e9817be887a2fcd4bb5130b9a9e2160f8d74646a4c5fc4f6"


def test_huge_n_is_data_error(capsys):
    # an n beyond any index size ends as one error line, as an n whose
    # translation vector does not fit in memory does
    code, out, err = run(capsys, "eval", "-n", "99999999999999999999", "g2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_other_forms_go_through_argparse(capsys, tmp_path):
    # forms the grammar table declines are read by argparse as before: an
    # abbreviated option, an attached value, "--" and an option's value
    # that starts with "-"
    g2 = write_element(tmp_path, "g2.json", generator(3, "g2"))
    g3 = write_element(tmp_path, "g3.json", generator(3, "g3"))
    plain = run(capsys, "conj", "--pretty", g2, g3)
    assert run(capsys, "conj", g2, g3, "--pre") == plain
    assert run(capsys, "conj", "-n3", "--pretty", "--", g2, g3) == plain
    assert run(capsys, "oracle", g2, g3, "--budget=2") == run(capsys, "oracle", g2, g3, "--budget", "2")
    code, out, err = run(capsys, "inv", "-n", "-3", g2)
    assert (code, out) == (2, "") and err == "error: element has n=3 but -n -3 was requested\n"


def argparse_values(parsers, argv):
    """What `main` reads from argv through argparse: the attributes of its
    namespace, or the exit code argparse asked for."""
    parser, commands = parsers
    command = commands.get(argv[0]) if argv else None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            if command is None:
                return vars(parser.parse_args(argv))
            return dict(vars(command.parse_args(argv[1:])), command=argv[0])
        except SystemExit as exc:
            return exc.code


PARSERS = cli._build_parser()
ARGV_TOKENS = list(cli._GRAMMAR) + [
    "no-such-command", "-n", "--pretty", "--pre", "--budget", "--budget=2", "-n3", "-h", "--help", "--", "-",
    "a.json", "b.json", "g2 g3", "0", "3", "12", "-1", "-7", " 7 ", "",
]


@settings(max_examples=1500, deadline=None)
@given(
    st.one_of(
        st.lists(st.sampled_from(ARGV_TOKENS), max_size=7),
        st.builds(lambda c, rest: [c] + rest, st.sampled_from(list(cli._GRAMMAR)),
                  st.lists(st.sampled_from(ARGV_TOKENS), max_size=6)),
    )
)
def test_table_parse_agrees_with_argparse(argv):
    # whatever the grammar table reads, argparse reads to the same values;
    # where argparse prints help or a usage error, the table declines
    plain = cli._read_plain(argv)
    if plain is not None:
        assert vars(plain) == argparse_values(PARSERS, argv)


@pytest.mark.parametrize("argv", [
    ["eval", "-n", "3", "g2 g3"],
    ["eval", "--pretty", "g2", "-n", " 7 "],
    ["mul", "a.json", "-", "--pretty"],
    ["inv", "-n", "3", "-n", "4", "a.json"],
    ["apply", "a.json", "2", "0"],
    ["orbits", "a.json"],
    ["ends", "-"],
    ["conj", "a.json", "b.json"],
    ["conj", "a.json", "--pretty", "--pretty", "b.json"],
    ["verify", "a.json", "b.json", "x.json"],
    ["oracle", "a.json", "b.json", "--budget", "3", "-n", "3"],
])
def test_table_parse_takes_plain_command_lines(argv):
    # every command's plain forms are read by the table, as argparse reads
    # them
    plain = cli._read_plain(argv)
    assert plain is not None and vars(plain) == argparse_values(PARSERS, argv)


def test_plain_call_leaves_argparse_unimported(tmp_path):
    # a plain command line in a fresh interpreter never imports argparse,
    # and a command's --help in the same interpreter still prints help
    write_element(tmp_path, "g2.json", generator(3, "g2"))
    script = (
        "import contextlib, io, sys\n"
        "from houghton.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['conj', 'g2.json', 'g2.json'])\n"
        "print(code, 'argparse' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = main(['conj', '--help'])\n"
        "print(code, 'argparse' in sys.modules, out.getvalue().startswith('usage: houghton conj '))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=package_env(), capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["0 False", "0 True True"]


def fuzzed_document(text, kind, k):
    """The element document `text`, or a variant of it: entry k % size
    dropped or duplicated, or integer k % count of the document replaced
    by a string, a float, a negative number or 10^30."""
    doc = json.loads(text)
    entries = doc["exceptions"]
    if kind == "drop" and entries:
        del entries[k % len(entries)]
    elif kind == "duplicate" and entries:
        entries.insert(k % len(entries), entries[k % len(entries)])
    elif kind in FUZZ_VALUES:
        # every int of the document as (container, index)
        slots = [(doc, "n")] + [(doc["t"], i) for i in range(len(doc["t"]))]
        slots += [(point, i) for entry in entries for point in entry for i in (0, 1)]
        container, index = slots[k % len(slots)]
        container[index] = FUZZ_VALUES[kind]
    return doc


FUZZ_VALUES = {"string": "21", "float": 1.5, "negative": -1, "huge": 10**30}


@settings(max_examples=32, deadline=None)
@given(
    st.integers(2, 4), st.integers(0, 10**6), st.integers(0, 400),
    st.sampled_from(["word", "drop", "duplicate"] + list(FUZZ_VALUES)), st.integers(0, 10**6),
)
def test_fuzzed_documents_exit_cleanly(tmp_path_factory, n, seed, length, kind, k):
    # a valid or malformed document of at most 2,000 entries ends conj and
    # orbits with exit 0 or 2 and no traceback, within 10 s of CPU and
    # 512 MB each
    text = serialize(evaluate(random_word(n, seed, length)))
    doc = fuzzed_document(text, kind, k)
    assert len(doc["exceptions"]) <= 2000
    work = tmp_path_factory.mktemp("fuzz")
    (work / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
    (work / "word.json").write_text(text, encoding="utf-8")
    for argv in (["conj", "doc.json", "word.json"], ["orbits", "doc.json"]):
        code, out, err = run_limited(work, *argv, cpu_s=10)
        assert code in (0, 2) and "Traceback" not in err, (argv, doc, code, err)
        assert (code == 2) == err.startswith("error: "), (argv, doc, code, err)
