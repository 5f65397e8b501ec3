"""Command-line front end.

Four subcommands: check-graph, check-scheme, property-suite, scan.  Reports
carry both sides of every inequality exactly (rationals as p/q strings,
algebraic numbers as defining polynomial plus interval); decimals are
annotation only.  Exit codes: 0 all checks verified, 1 input or usage
error, 2 soundness alarm: a guaranteed statement failed on a validated
instance, which means an implementation bug, never a property of the input.

This module parses arguments, loads input and prints reports; which checks
run and what counts as an alarm is decided in ``qpolykit.checks``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import checks
from . import graphs as graphmod
from . import scanner as scanmod
from . import schemes as schememod
from . import tridiagonal as trimod
from .checks import EXIT_ALARM, EXIT_INPUT, EXIT_OK, THEOREM_CHOICES
from .families import load, parse_family_spec
from .graphs import Graph, GraphError
from .schemes import SchemeError
from .serialize import dump_json, dump_json_pretty


def _emit(output: str, report: dict, text_lines: list[str]) -> None:
    if output == "json":
        print(dump_json_pretty(report))
    else:
        for line in text_lines:
            print(line)


def _input_error(exc: Exception) -> int:
    print(f"input error: {exc}", file=sys.stderr)
    return EXIT_INPUT


# -- check-graph ----------------------------------------------------------------


def _load_graph(args) -> Graph:
    if args.family:
        obj = parse_family_spec(args.family)
        if not isinstance(obj, Graph):
            raise GraphError(f"family {args.family!r} is not a graph")
        return obj
    if not args.input:
        raise GraphError("need --input or --family")
    return load(args.input, "graph6" if args.format == "graph6" else "json_graph")


def cmd_check_graph(args) -> int:
    try:
        g = _load_graph(args)
    except (GraphError, ValueError, OSError) as exc:
        return _input_error(exc)
    try:
        report, lines, _ = checks.check_graph(g, args.theorem)
    except GraphError as exc:
        return _input_error(exc)
    _emit(args.output, report, lines)
    return report["exit_code"]


# -- check-scheme -----------------------------------------------------------------


def _load_scheme(args):
    """An AssociationScheme, or [QPolyStructure] for Krein-array input."""
    if args.krein:
        return [schememod.krein_array_structure(json.loads(args.krein))]
    if args.from_graph:
        return schememod.scheme_from_graph(parse_family_spec(args.from_graph))
    if not args.input:
        raise SchemeError("need --input, --from-graph or --krein")
    if args.format == "graph6":
        return schememod.scheme_from_graph(load(args.input, "graph6"))
    return load(args.input, "json_scheme")


def cmd_check_scheme(args) -> int:
    try:
        source = _load_scheme(args)
    except (SchemeError, GraphError, ValueError, OSError) as exc:
        return _input_error(exc)
    try:
        report, lines, _ = checks.check_scheme(source, args.theorem)
    except SchemeError as exc:
        return _input_error(exc)
    except OverflowError:
        # only Krein-array input reaches magnitudes beyond the float range
        return _input_error(SchemeError("a value exceeds the float range of the decimal annotations"))
    _emit(args.output, report, lines)
    return report["exit_code"]


# -- property-suite ------------------------------------------------------------------


def cmd_property_suite(args) -> int:
    """Randomized verification: tridiagonal systems and regular graphs.

    Any theorem violation is a soundness alarm: the run stops with exit 2
    and a reproducer (seed and index).
    """
    rng = random.Random(args.seed)
    report: dict = {
        "command": "property-suite",
        "seed": args.seed,
        "systems": args.n,
        "graphs": args.graphs,
    }
    lines = [f"property suite: seed={args.seed}, {args.n} systems, {args.graphs} graphs"]

    def alarm(where: str, reproducer: dict) -> int:
        reproducer = {"seed": args.seed, **reproducer}
        report["violation"] = reproducer
        report["exit_code"] = EXIT_ALARM
        lines.append(f"ALARM at {where}: {reproducer['problems']}")
        lines.append(f"reproducer: {dump_json(reproducer)}")
        _emit(args.output, report, lines)
        return EXIT_ALARM

    for index in range(args.n):
        system = trimod.random_system(rng, rng.randint(2, 6))
        problems = checks.check_system(system)
        if problems:
            reproducer = {"index": index, "system": system.to_json_dict(), "problems": problems}
            return alarm(f"system index {index}", reproducer)

    for index in range(args.graphs):
        n = rng.choice([8, 10, 12, 14])
        k = rng.choice([3, 4])
        if n * k % 2:
            n += 1
        g = graphmod.random_regular_graph(rng, n, k)
        if g.is_complete():
            continue
        _, _, problems = checks.check_graph(g, "kpy")
        if problems:
            reproducer = {"graph_index": index, "graph6": graphmod.emit_graph6(g), "problems": problems}
            return alarm(f"graph index {index}", reproducer)

    report["violations"] = 0
    report["exit_code"] = EXIT_OK
    lines.append("0 violations")
    lines.append("exit: 0")
    _emit(args.output, report, lines)
    return EXIT_OK


# -- scan ---------------------------------------------------------------------------------


def cmd_scan(args) -> int:
    try:
        spec = scanmod.GridSpec(
            m_max=Fraction(args.m_max),
            m_min=Fraction(args.m_min),
            step=Fraction(args.step),
            genuine=not args.non_genuine,
            free_c3=args.free_c3,
        )
        spec.validate()
    except (ValueError, ZeroDivisionError) as exc:
        return _input_error(exc)
    result = scanmod.scan(spec)
    for rec in result.records:
        print(dump_json(rec.to_json_dict()))
    print(dump_json({"command": "scan", "tallies": result.tallies}))
    alarms = checks.check_scan(result)
    for a in alarms:
        print(f"ALARM: {a}", file=sys.stderr)
    return EXIT_ALARM if alarms else EXIT_OK


# -- argument parsing -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (input error); exit 2 is kept for soundness alarms."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qpolykit",
        description="Exact spectral checks for tridiagonal systems, graphs and association schemes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--output", choices=("text", "json"), default="text")
        return p

    pg = add("check-graph", "run the graph-side checks")
    pg.add_argument("--input", help="path to a graph file")
    pg.add_argument("--family", help="family spec, e.g. petersen or hamming:d=4,q=2")
    pg.add_argument("--format", choices=("graph6", "json"), default="graph6")
    pg.add_argument("--theorem", choices=THEOREM_CHOICES, default="all")

    ps = add("check-scheme", "run the scheme-side checks")
    ps.add_argument("--input", help="path to a scheme or graph file")
    ps.add_argument("--from-graph", help="family spec; scheme = distance relations")
    ps.add_argument("--krein", help="inline krein-array JSON")
    ps.add_argument("--format", choices=("graph6", "json"), default="json")
    ps.add_argument("--theorem", choices=THEOREM_CHOICES, default="all")

    pp = add("property-suite", "randomized theorem verification")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--n", type=_count, default=1000, help="number of random tridiagonal systems")
    pp.add_argument("--graphs", type=_count, default=25, help="number of random regular graphs")

    pc = add("scan", "grid scan over class-3 dual parameter sets")
    pc.add_argument("--m-max", default="10")
    pc.add_argument("--m-min", default="2")
    pc.add_argument("--step", default="1")
    pc.add_argument("--free-c3", action="store_true")
    pc.add_argument("--non-genuine", action="store_true", help="drop the m_3 integrality filter")
    return parser


COMMANDS = {
    "check-graph": cmd_check_graph,
    "check-scheme": cmd_check_scheme,
    "property-suite": cmd_property_suite,
    "scan": cmd_scan,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage error (exit 1) or --help (exit 0)
        return exc.code
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
