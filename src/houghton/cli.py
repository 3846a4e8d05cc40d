"""Command-line front end.

All structured output is the canonical JSON document format; --pretty adds
a human-readable rendering to eval, mul, inv and conj.  Exit codes: 0
success/decided, 1 usage error, 2 invalid input data, an input beyond the
walk limits, an oracle search that `oracle.brute_force_conjugator` refuses
as too large (a ball with more reduced words than its cap), or a command
that runs out of memory or is given a size beyond any index (say, `eval`
in an H_n too large for its translation vector).

Each command is declared, read and run from one table, `_GRAMMAR`.  A
plain command line (a command, the option strings it declares and its
positionals) is read straight from that table by `_read_plain`; every
other form, help and usage errors included, goes to argparse, whose
parsers are built from the same table on each such call.  argparse is
imported only then, so a plain call never loads it; `oracle` is imported
only by the `oracle` command, so no other command loads it.
"""

from __future__ import annotations

import sys
import types
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from . import conjugacy, core, orbits


def _read_element(path: str, n: Optional[int]) -> core.HoughtonElement:
    if path == "-":
        text = sys.stdin.read()
    else:
        # read as bytes in one call and decoded at once, with no buffer or
        # text layer in between
        with open(path, "rb", buffering=0) as handle:
            text = handle.read().decode("utf-8")
    element = core.deserialize(text)
    if n is not None and element.n != n:
        raise core.InvalidElementError(
            "element has n=%d but -n %d was requested" % (element.n, n)
        )
    return element


def _outcome_doc(out: conjugacy.ConjugacyOutcome) -> str:
    doc = {"decision": "yes" if out.is_conjugate else "no"}
    if out.is_conjugate:
        doc["certificate"] = core._document(out.conjugator)
        doc["verified"] = out.verified
    else:
        doc["reason"] = out.reason
    if out.bounds is not None:
        doc["bounds"] = {"K": out.bounds.K, "M": out.bounds.M}
    return core._JSON.encode(doc)


def _pretty_element(g: core.HoughtonElement) -> str:
    lines = ["H_%d element" % g.n, "  t = %s" % (g.t,)]
    for p, q in sorted(g.exceptions.items()):
        lines.append("  %s -> %s" % (p, q))
    return "\n".join(lines)


def _point(p) -> str:
    return "(%d,%d)" % p


def _render_orbits(decomp: orbits.CycleDecomposition) -> str:
    lines = []
    for cycle in decomp.finite_cycles:
        lines.append("(" + " ".join(_point(p) for p in cycle.points) + ")")
    for o in decomp.infinite_orbits:
        spine = " ".join(_point(p) for p in o.spine)
        lines.append(
            "[(%d,%d)<-tail | %s | tail->(%d,%d)]"
            % (o.neg_ray, o.neg_residue, spine, o.pos_ray, o.pos_residue)
        )
    return "\n".join(lines)


_BUDGET = 6  # the default of --budget


def _print_element(g: core.HoughtonElement, pretty: bool) -> None:
    print(_pretty_element(g) if pretty else core.serialize(g))


def _eval(args) -> None:
    if args.n is None:
        raise core.WordError("eval requires -n")
    _print_element(core.evaluate(core.Word.parse(args.n, args.word)), args.pretty)


def _mul(args) -> None:
    _print_element(core.compose(_read_element(args.left, args.n), _read_element(args.right, args.n)), args.pretty)


def _inv(args) -> None:
    _print_element(core.inverse(_read_element(args.element, args.n)), args.pretty)


def _apply(args) -> None:
    print(_point(core.apply(_read_element(args.element, args.n), (args.ray, args.offset))))


def _orbits(args) -> None:
    text = _render_orbits(orbits.cycle_decomposition(_read_element(args.element, args.n)))
    if text:
        print(text)


def _ends(args) -> None:
    parts = orbits.ends_partition(_read_element(args.element, args.n))
    print(" ".join("{%s}" % ",".join(map(str, sorted(c))) for c in parts.classes))


def _conj(args) -> None:
    out = conjugacy.conjugate(_read_element(args.a, args.n), _read_element(args.b, args.n))
    print(_outcome_doc(out))
    if args.pretty and out.is_conjugate:
        print(_pretty_element(out.conjugator), file=sys.stderr)


def _verify(args) -> None:
    a, b, x = (_read_element(path, args.n) for path in (args.a, args.b, args.x))
    print(core._JSON.encode({"decision": "yes" if core.verify(a, b, x) else "no"}))


def _oracle(args) -> None:
    from . import oracle

    a, b = _read_element(args.a, args.n), _read_element(args.b, args.n)
    word = oracle.brute_force_conjugator(a, b, oracle.SearchBudget(args.budget))
    print(core._JSON.encode({"found": False} if word is None else {"found": True, "word": str(word)}))


class _Command(NamedTuple):
    """One command of the grammar: its help line, its positionals as
    (name, converter, help text), its action, which reads the parsed
    namespace, runs the command and prints its output, and whether it
    takes --pretty and --budget INT.  Every command takes -n INT."""

    help: str
    positionals: Tuple[Tuple[str, Callable[[str], object], Optional[str]], ...]
    run: Callable[[Any], None]
    pretty: bool = False
    budget: bool = False


# the one declaration of the command line, read by `_read_plain` and
# `_build_parser` and run by `main`; `houghton --help` follows its order
_GRAMMAR: Dict[str, _Command] = {
    "eval": _Command(
        "evaluate a word to an element document",
        (("word", str, "whitespace-separated tokens, e.g. \"g2 g3'\""),),
        _eval,
        pretty=True,
    ),
    "mul": _Command(
        "multiply two elements (right action order)", (("left", str, None), ("right", str, None)), _mul, pretty=True
    ),
    "inv": _Command("invert an element", (("element", str, None),), _inv, pretty=True),
    "apply": _Command(
        "image of a point under an element",
        (("element", str, None), ("ray", int, None), ("offset", int, None)),
        _apply,
    ),
    "orbits": _Command("cycle decomposition of an element", (("element", str, None),), _orbits),
    "ends": _Command("ends equivalence classes of the moving rays", (("element", str, None),), _ends),
    "conj": _Command(
        "decide conjugacy and print a certificate or refutation",
        (("a", str, None), ("b", str, None)),
        _conj,
        pretty=True,
    ),
    "verify": _Command(
        "check a conjugator certificate", (("a", str, None), ("b", str, None), ("x", str, None)), _verify
    ),
    "oracle": _Command(
        "bounded brute-force conjugator word search", (("a", str, None), ("b", str, None)), _oracle, budget=True
    ),
}


def _read_plain(argv: List[str]) -> Optional[types.SimpleNamespace]:
    """argv read against the grammar, or None when it is not a plain
    command line: a command, then option strings that the command declares
    exactly, each int option with an int value that does not start with
    "-", and as many positionals as the command has, none of which starts
    with "-" unless it is "-" itself.  Whatever this accepts, argparse
    reads to the same values; every other form (help, abbreviations,
    "--budget=3", "-n3", "--", negative numbers, usage errors) is left to
    argparse, so that it alone words help and errors."""
    command = _GRAMMAR.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {"command": argv[0], "n": None}
    if command.pretty:
        values["pretty"] = False
    if command.budget:
        values["budget"] = _BUDGET
    tokens = []
    rest = iter(argv[1:])
    try:
        for token in rest:
            if token[:1] != "-" or token == "-":
                tokens.append(token)
            elif token == "--pretty" and command.pretty:
                values["pretty"] = True
            elif token == "-n" or token == "--budget" and command.budget:
                value = next(rest)
                if value[:1] == "-":
                    return None
                values[token.lstrip("-")] = int(value)
            else:
                return None
        if len(tokens) != len(command.positionals):
            return None
        for (dest, convert, _), token in zip(command.positionals, tokens):
            values[dest] = convert(token)
    except (StopIteration, ValueError):
        return None
    return types.SimpleNamespace(**values)


def _build_parser() -> Tuple[Any, Dict[str, Any]]:
    """argparse's top-level parser and each command's own parser, by name.
    argparse is imported here, so that a plain command line never loads
    it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="houghton",
        description="Exact arithmetic and conjugacy decision for Houghton's groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _GRAMMAR.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("-n", type=int, default=None, help="number of rays")
        if command.pretty:
            p.add_argument("--pretty", action="store_true", help="human-readable output")
        for dest, convert, helptext in command.positionals:
            p.add_argument(dest, type=convert, help=helptext)
        if command.budget:
            p.add_argument("--budget", type=int, default=_BUDGET, help="maximum word length")
    return parser, sub.choices


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv)
    if args is None:
        parser, commands = _build_parser()
        # a command's arguments are parsed by its own parser, at one level;
        # the top-level parser handles only help and a missing or unknown
        # command
        command = commands.get(argv[0]) if argv else None
        try:
            if command is None:
                args = parser.parse_args(argv)
            else:
                args = command.parse_args(argv[1:])
                args.command = argv[0]
        except SystemExit as exc:
            return 0 if exc.code == 0 else 1
    try:
        _GRAMMAR[args.command].run(args)
    except (core.InvalidElementError, core.WordError, ValueError, OSError, OverflowError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
