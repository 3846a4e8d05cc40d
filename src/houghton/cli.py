"""Command-line front end.

All structured output is the canonical JSON document format; --pretty adds
a human-readable rendering to eval, mul, inv and conj.  Exit codes: 0
success/decided, 1 usage error, 2 invalid input data, an input beyond the
walk limits, an oracle search that `oracle.brute_force_conjugator` refuses
as too large (a ball with more reduced words than its cap), or a command
that runs out of memory (say, `eval` in an H_n too large for its
translation vector).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple

from . import conjugacy, core, oracle, orbits


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


def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, by name."""
    parser = argparse.ArgumentParser(
        prog="houghton",
        description="Exact arithmetic and conjugacy decision for Houghton's groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, helptext, pretty=False):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("-n", type=int, default=None, help="number of rays")
        if pretty:
            p.add_argument("--pretty", action="store_true", help="human-readable output")
        return p

    p = add("eval", "evaluate a word to an element document", pretty=True)
    p.add_argument("word", help="whitespace-separated tokens, e.g. \"g2 g3'\"")

    p = add("mul", "multiply two elements (right action order)", pretty=True)
    p.add_argument("left")
    p.add_argument("right")

    p = add("inv", "invert an element", pretty=True)
    p.add_argument("element")

    p = add("apply", "image of a point under an element")
    p.add_argument("element")
    p.add_argument("ray", type=int)
    p.add_argument("offset", type=int)

    p = add("orbits", "cycle decomposition of an element")
    p.add_argument("element")

    p = add("ends", "ends equivalence classes of the moving rays")
    p.add_argument("element")

    p = add("conj", "decide conjugacy and print a certificate or refutation", pretty=True)
    p.add_argument("a")
    p.add_argument("b")

    p = add("verify", "check a conjugator certificate")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("x")

    p = add("oracle", "bounded brute-force conjugator word search")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--budget", type=int, default=6, help="maximum word length")
    return parser, sub.choices


def _run(args) -> int:
    n = args.n
    if args.command == "eval":
        if n is None:
            raise core.WordError("eval requires -n")
        element = core.evaluate(core.Word.parse(n, args.word))
        print(_pretty_element(element) if args.pretty else core.serialize(element))
        return 0
    if args.command == "mul":
        g = _read_element(args.left, n)
        h = _read_element(args.right, n)
        out = core.compose(g, h)
        print(_pretty_element(out) if args.pretty else core.serialize(out))
        return 0
    if args.command == "inv":
        g = _read_element(args.element, n)
        out = core.inverse(g)
        print(_pretty_element(out) if args.pretty else core.serialize(out))
        return 0
    if args.command == "apply":
        g = _read_element(args.element, n)
        q = core.apply(g, (args.ray, args.offset))
        print(_point(q))
        return 0
    if args.command == "orbits":
        g = _read_element(args.element, n)
        text = _render_orbits(orbits.cycle_decomposition(g))
        if text:
            print(text)
        return 0
    if args.command == "ends":
        g = _read_element(args.element, n)
        parts = orbits.ends_partition(g)
        print(" ".join("{%s}" % ",".join(map(str, sorted(c))) for c in parts.classes))
        return 0
    if args.command == "conj":
        a = _read_element(args.a, n)
        b = _read_element(args.b, n)
        out = conjugacy.conjugate(a, b)
        print(_outcome_doc(out))
        if args.pretty and out.is_conjugate:
            print(_pretty_element(out.conjugator), file=sys.stderr)
        return 0
    if args.command == "verify":
        a = _read_element(args.a, n)
        b = _read_element(args.b, n)
        x = _read_element(args.x, n)
        ok = conjugacy.verify(a, b, x)
        print(core._JSON.encode({"decision": "yes" if ok else "no"}))
        return 0
    if args.command == "oracle":
        a = _read_element(args.a, n)
        b = _read_element(args.b, n)
        word = oracle.brute_force_conjugator(a, b, oracle.SearchBudget(args.budget))
        if word is None:
            print(core._JSON.encode({"found": False}))
        else:
            print(core._JSON.encode({"found": True, "word": str(word)}))
        return 0
    raise AssertionError("unhandled command")


# built by the first main call, with the command parsers of its subparsers
_parser: Optional[argparse.ArgumentParser] = None
_commands: Dict[str, argparse.ArgumentParser] = {}


def main(argv: Optional[List[str]] = None) -> int:
    global _parser, _commands
    if _parser is None:
        _parser, _commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # a command's arguments are parsed by its own parser, at one level; the
    # top-level parser handles only help and a missing or unknown command
    command = _commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = _parser.parse_args(argv)
        else:
            args = command.parse_args(argv[1:])
            args.command = argv[0]
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _run(args)
    except (core.InvalidElementError, core.WordError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
