import contextlib
import hashlib
import io
import json
import random
import re
import runpy
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

import pytest

from houghton import HoughtonElement, Word, compose, conjugate_element, evaluate, generator, serialize
from houghton import cli, core
from houghton.cli import main
from instances import drawn_cases, lift, package_env, random_word, rotation_family


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_element(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(serialize(g), encoding="utf-8")
    return str(path)


def test_eval_requires_n(capsys):
    code, _, err = run(capsys, "eval", "g2")
    assert code == 2
    assert "error" in err


def test_eval_pretty(capsys):
    code, out, _ = run(capsys, "eval", "-n", "3", "--pretty", "g2")
    assert code == 0
    assert "t = (1, -1, 0)" in out


def test_verify_command(capsys, tmp_path):
    g2 = write_element(tmp_path, "g2.json", generator(3, "g2"))
    g3 = write_element(tmp_path, "g3.json", generator(3, "g3"))
    code, out, _ = run(capsys, "verify", g2, g2, g3)
    assert code == 0
    assert json.loads(out) == {"decision": "no"}


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


def test_oracle_command_searches_radius_6_by_default(capsys, tmp_path):
    # the reference search finds no conjugator of a = g2 g2 g3 to its
    # conjugate by (g2 g3)^3 below radius 6, nor to its conjugate by
    # (g2 g3)^3 g2 below radius 7: with no --budget, the first is found
    # and the second is not, until --budget 7 is given
    a = evaluate(Word.parse(3, "g2 g2 g3"))
    path = write_element(tmp_path, "a.json", a)
    for name, word, default in (
        ("six.json", "g2 g3 g2 g3 g2 g3", True),
        ("seven.json", "g2 g3 g2 g3 g2 g3 g2", False),
    ):
        b = write_element(tmp_path, name, conjugate_element(a, evaluate(Word.parse(3, word))))
        hit = {"found": True, "word": word}
        code, out, _ = run(capsys, "oracle", path, b)
        assert code == 0 and json.loads(out) == (hit if default else {"found": False})
        code, out, _ = run(capsys, "oracle", path, b, "--budget", "7")
        assert code == 0 and json.loads(out) == hit


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


class Capped(NamedTuple):
    """A `houghton` command of `test_large_inputs_in_512_mb` and what it
    must print; `save` names a file that takes its stdout."""
    argv: Tuple[str, ...]
    holds: Tuple[str, ...] = ()  # strings that stdout contains
    out: Optional[str] = None  # the whole of stdout
    lines: Optional[int] = None  # the number of stdout lines
    code: int = 0
    err: str = ""  # the whole of stderr
    save: Optional[str] = None


def rotation(step, m=2000):
    """The document of `rotation_family(m, step)`."""
    return core._document(rotation_family(m, step))


def far_swaps():
    """The swaps of (i, m) and (i, 10^9 + m) for m in {0, 1} on each ray
    of H_3."""
    f = 10**9
    return {"n": 3, "t": [0, 0, 0], "exceptions": [
        e for i in (1, 2, 3) for m in (0, 1) for e in ([[i, m], [i, f + m]], [[i, f + m], [i, m]])
    ]}


def long_cycle():
    """An element of H_2 with a finite cycle through (1, 0), (2, 0) and
    4 * 10^6 points between them."""
    m = 4 * 10**6
    return {"n": 2, "t": [1, -1], "exceptions": [[[1, m - 1], [2, m]], [[2, 0], [1, 0]], [[2, m + 1], [1, m]]]}


def crossing():
    """An element of H_4 whose orbit of the ends class {1, 2} crosses ray 3
    of the class {3, 4} in a run of 10^9 + 1 points."""
    m = 10**9
    return {"n": 4, "t": [1, -1, 1, -1], "exceptions": [[[2, 0], [3, 0]], [[3, m], [1, 0]], [[4, 0], [3, m + 1]]]}


def many_fixed():
    """g2 of H_2 shifted by 200,000 points, whose table holds those points
    as 200,000 fixed entries."""
    m = 200000
    return {"n": 2, "t": [1, -1], "exceptions": [[[1, k], [1, k]] for k in range(m)] + [[[2, 0], [1, m]]]}


YES = ('"decision":"yes"', '"verified":true')


@pytest.mark.parametrize("documents, steps", [
    pytest.param({}, [Capped(("eval", "-n", "20000000", "g2"), holds=('{"n":20000000,"t":[1,-1,0,',))],
                 id="eval-20000000"),
    pytest.param({"r.json": lambda: rotation(1), "r0.json": lambda: rotation(0)}, [
        Capped(("conj", "r.json", "r.json"), holds=YES + ('"bounds":{"K":4,"M":2000}',)),
        Capped(("conj", "r.json", "r0.json"), holds=('"reason":"orbit-pairing-mismatch"',)),
        Capped(("orbits", "r.json"), lines=2000),
        Capped(("ends", "r.json"), out="{1,2}\n"),
    ], id="rotation-2000"),
    pytest.param({"r.json": lambda: rotation(1, 20000), "r0.json": lambda: rotation(0, 20000)}, [
        Capped(("conj", "r.json", "r0.json"), holds=('"reason":"orbit-pairing-mismatch"',)),
    ], id="rotation-20000"),
    pytest.param({"swap.json": far_swaps}, [
        Capped(("eval", "-n", "3", "g2"), save="g2.json"),
        Capped(("mul", "swap.json", "g2.json"), save="swap_g2.json"),
        Capped(("mul", "swap_g2.json", "swap.json"), save="far.json"),
        Capped(("conj", "far.json", "g2.json"), holds=YES + ('"bounds":{"K":4000000012,"M":1}',)),
    ], id="far-swaps"),
    pytest.param({"cycle.json": long_cycle}, [
        Capped(("conj", "cycle.json", "cycle.json"), holds=YES),
        Capped(("ends", "cycle.json"), out="{1,2}\n"),
    ], id="cycle-4000000"),
    pytest.param({"crossing.json": crossing}, [
        Capped(("conj", "crossing.json", "crossing.json"), holds=YES + (
            '"certificate":{"n":4,"t":[0,0,0,0],"exceptions":[]}', '"bounds":{"K":2000000006,"M":1}')),
        Capped(("ends", "crossing.json"), out="{1,2} {3,4}\n"),
        Capped(("orbits", "crossing.json"), out="", code=2,
               err="error: an orbit walk would take more than 10000000 steps\n"),
    ], id="crossing"),
    pytest.param({"fixed.json": many_fixed}, [
        Capped(("conj", "fixed.json", "fixed.json"), holds=YES + ('"certificate":{"n":2,"t":[0,0],"exceptions":[]}',)),
    ], id="fixed-200000"),
])
def test_large_inputs_in_512_mb(tmp_path, documents, steps):
    # inputs whose size is in the offsets, the orbit counts or the fixed
    # entries, each command in 512 MB and 20 s of CPU: a verified yes, a
    # tagged no, or exit 2 with one error line, never a traceback
    for name, document in documents.items():
        (tmp_path / name).write_text(json.dumps(document()), encoding="utf-8")
    for step in steps:
        code, out, err = run_limited(tmp_path, *step.argv, cpu_s=20)
        assert (code, err) == (step.code, step.err), step.argv
        assert all(text in out for text in step.holds), (step.argv, out[:200])
        assert step.out in (None, out) and step.lines in (None, out.count("\n")), (step.argv, out[:200])
        if step.save:
            (tmp_path / step.save).write_text(out, encoding="utf-8")


def test_running_out_of_memory_is_data_error(tmp_path):
    # the translation vector of H_1,000,000,000 does not fit in 512 MB:
    # the command exits 2 with one error line, not a traceback
    code, out, err = run_limited(tmp_path, "eval", "-n", "1000000000", "g2")
    assert (code, out) == (2, "") and err == "error: out of memory\n"


def test_memory_error_in_a_command_is_data_error(capsys, monkeypatch):
    # the handler of the subprocess test above, in this process
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._GRAMMAR, "eval", cli._GRAMMAR["eval"]._replace(run=exhausted))
    assert run(capsys, "eval", "-n", "3", "g2") == (2, "", "error: out of memory\n")


def test_module_runs_as_a_script(capsys, monkeypatch):
    # `python -m houghton.cli`, in this process: the module is imported
    # already, which runpy warns of, and runs again as __main__
    monkeypatch.setattr(sys, "argv", ["houghton", "eval", "-n", "3", "g2"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("houghton.cli", run_name="__main__")
    assert exc.value.code == 0 and capsys.readouterr().out == serialize(generator(3, "g2")) + "\n"


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
        started = time.process_time()
        code, out, _ = run(capsys, "conj", *paths)
        return code, json.loads(out), time.process_time() - started

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
    monkeypatch.setattr(orbits, "_WALK_LIMIT", 1)
    code, out, err = run(capsys, "orbits", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_orbits_spine_beyond_limit_exits_2(capsys, tmp_path, monkeypatch):
    # the decomposition takes 3 runs, but listing the spine would take 102 points
    from houghton import orbits

    swap = HoughtonElement(2, (0, 0), {(1, 100): (1, 101), (1, 101): (1, 100)})
    path = write_element(tmp_path, "g.json", compose(generator(2, "g2"), swap))
    monkeypatch.setattr(orbits, "_WALK_LIMIT", 50)
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
    monkeypatch.setattr(orbits, "_WALK_LIMIT", 50)
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
        y = lift(2, 1000 + rng.randrange(10), width)
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
    "a.json", "b.json", "g2 g3", "0", "3", "12", "-1", "-7", " 7 ", "", "-3_0",
]


def test_table_parse_agrees_with_argparse():
    # whatever the grammar table reads, argparse reads to the same values;
    # where argparse prints help or a usage error, the table declines.
    # Drawn: up to 7 tokens, or a command and up to 6 tokens
    def draw(rng):
        head = [rng.choice(list(cli._GRAMMAR))] if rng.random() < 0.5 else []
        return head + [rng.choice(ARGV_TOKENS) for _ in range(rng.randint(0, 6 if head else 7))]

    # int reads "-3_0" as -30, but argparse takes it for an option
    explicit = [[], ["inv", "-n", "-3_0", "a.json"]] + [[token] * size for token in ARGV_TOKENS for size in (1, 7)]
    for argv in explicit + drawn_cases("test_table_parse_agrees_with_argparse", 1500, draw):
        plain = cli._read_plain(argv)
        if plain is not None:
            assert vars(plain) == argparse_values(PARSERS, argv), argv


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


def test_plain_conj_leaves_the_oracle_unimported(tmp_path):
    # a plain conj in a fresh interpreter never imports the oracle; the
    # oracle command in the same interpreter does
    write_element(tmp_path, "g2.json", generator(3, "g2"))
    script = (
        "import contextlib, io, sys\n"
        "from houghton.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = main(['conj', 'g2.json', 'g2.json'])\n"
        "print(code, 'houghton.oracle' in sys.modules, out.getvalue().startswith('{\"decision\":\"yes\"'))\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = main(['oracle', 'g2.json', 'g2.json', '--budget', '1'])\n"
        "print(code, 'houghton.oracle' in sys.modules, out.getvalue().strip())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=package_env(), capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["0 False True", '0 True {"found":true,"word":""}']


def readme_transcript():
    """(argv, file or None, shown stdout) for each `$ houghton` line of the
    README's ```console block: the file is the target of a trailing
    `> file`, and the shown stdout is the lines up to the next `$`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```console\n(.*?)```", readme, flags=re.S).group(1)
    steps = []
    for line in block.splitlines():
        if line.startswith("$ "):
            tokens = shlex.split(line[2:])
            assert tokens[0] == "houghton" and "|" not in tokens, line
            target = None
            if tokens[-2:-1] == [">"]:
                tokens, target = tokens[:-2], tokens[-1]
            steps.append((tokens[1:], target, []))
        else:
            steps[-1][2].append(line + "\n")
    return [(argv, target, "".join(shown)) for argv, target, shown in steps]


def matches_shown(shown, printed):
    """Whether `printed` is `shown` with each `{...}` read as one JSON object."""
    parts = shown.split("{...}")
    at = 0
    for k, part in enumerate(parts):
        if not printed.startswith(part, at):
            return False
        at += len(part)
        if k < len(parts) - 1:
            try:
                value, at = json.JSONDecoder().raw_decode(printed, at)
            except ValueError:
                return False
            if not isinstance(value, dict):
                return False
    return at == len(printed)


def test_readme_transcript_is_what_main_prints(capsys, monkeypatch, tmp_path):
    # each command of the README's session, run in order in one directory,
    # exits 0 and prints exactly what the README shows
    monkeypatch.chdir(tmp_path)
    steps = readme_transcript()
    assert steps
    for argv, target, shown in steps:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if target is None:
            assert matches_shown(shown, out), (argv, shown, out)
        else:
            assert shown == "", argv
            (tmp_path / target).write_text(out, encoding="utf-8")
    # `{...}` stands for a whole JSON object, nested or not, and nothing else
    assert matches_shown("{...} {...}\n", '{} {"a":{}}\n') and not matches_shown('{"K":{...}}', '{"K":6}')


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


def test_fuzzed_documents_exit_cleanly(tmp_path_factory):
    # a valid or malformed document of at most 2,000 entries ends conj and
    # orbits with exit 0 or 2 and no traceback, within 10 s of CPU and
    # 512 MB each
    kinds = ["word", "drop", "duplicate"] + list(FUZZ_VALUES)

    def draw(rng):
        return rng.randint(2, 4), rng.randint(0, 10**6), rng.randint(0, 400), rng.choice(kinds), rng.randint(0, 10**6)

    explicit = [(2, 0, 0, kind, 0) for kind in kinds] + [(4, 10**6, 400, kind, 10**6) for kind in kinds]
    for case in explicit + drawn_cases("test_fuzzed_documents_exit_cleanly", 32, draw):
        n, seed, length, kind, k = case
        text = serialize(evaluate(random_word(n, seed, length)))
        doc = fuzzed_document(text, kind, k)
        assert len(doc["exceptions"]) <= 2000, case
        work = tmp_path_factory.mktemp("fuzz")
        (work / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
        (work / "word.json").write_text(text, encoding="utf-8")
        for argv in (["conj", "doc.json", "word.json"], ["orbits", "doc.json"]):
            code, out, err = run_limited(work, *argv, cpu_s=10)
            assert code in (0, 2) and "Traceback" not in err, (case, argv, doc, code, err)
            assert (code == 2) == err.startswith("error: "), (case, argv, doc, code, err)
