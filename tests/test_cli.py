import json
import time

import pytest

from houghton import HoughtonElement, generator, serialize
from houghton.cli import main


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
