"""Command-line interface.

Exit codes: 0 for success or a true predicate, 1 for a false predicate,
a violated implication or a stuck reduction, 2 for parse or validation
errors.  ``--machine`` switches reports to one ``key=value`` per line.
Graph sources are paths or ``builtin:<name>``; surface sources are paths
or ``example:<n>``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .fileio import ParseError, parse_path, serialize_graph, to_dot
from .graph import (
    Foliation,
    _natural,
    builtin,
    complexity,
    euler_genus,
    is_calabi,
    validate,
)

# Each command imports what it uses beyond the graph core, so a graph
# command never loads the reduction or the surface layer.  The
# annotations name that layer's SurfaceModel without importing it.

PARSE_ERROR = 2
PREDICATE_FALSE = 1
OK = 0


def _fail_parse(message: str) -> int:
    print(message, file=sys.stderr)
    return PARSE_ERROR


def _load(source: str) -> Foliation | SurfaceModel:
    try:
        if source.startswith("builtin:"):
            return builtin(source[len("builtin:") :])
        if source.startswith("example:"):
            from .surfaces import builtin_example

            return builtin_example(_natural(source[len("example:") :]))
    except ValueError as exc:
        # Both prefixes are 8 characters long: column 9 starts the name.
        raise ParseError(1, 9, str(exc), source) from exc
    return parse_path(source)


def _load_graph(source: str) -> Foliation:
    obj = _load(source)
    if not isinstance(obj, Foliation):
        raise ParseError(1, 1, "expected a graph, found a surface model", source)
    return obj


def _load_valid_graph(source: str) -> Foliation:
    g = _load_graph(source)
    report = validate(g)
    if not report.ok:
        raise ParseError(1, 1, "; ".join(report.violations), source)
    return g


def _load_surface(source: str) -> SurfaceModel:
    obj = _load(source)
    if isinstance(obj, Foliation):
        raise ParseError(1, 1, "expected a surface model, found a graph", source)
    return obj


def _emit(machine: bool, pairs: list[tuple[str, object]], human: list[str]):
    if machine:
        for key, value in pairs:
            if isinstance(value, bool):
                value = "true" if value else "false"
            print(f"{key}={value}")
    else:
        for line in human:
            print(line)


def _cmd_validate(args) -> int:
    g = _load_graph(args.source)
    report = validate(g)
    if report.ok:
        _emit(args.machine, [("valid", True)], ["ok"])
        return OK
    if args.machine:
        _emit(True, [("valid", False)] + [("violation", v) for v in report.violations], [])
    else:
        for v in report.violations:
            print(f"violation: {v}")
    return PARSE_ERROR


def _cmd_calabi(args) -> int:
    g = _load_valid_graph(args.source)
    cert = is_calabi(g)
    if cert.verdict:
        human = ["calabi: yes"]
        pairs: list[tuple[str, object]] = [("calabi", True)]
        for cyc in cert.cycles:
            human.append("cycle: " + " ".join(cyc))
            pairs.append(("cycle", ",".join(cyc)))
        _emit(args.machine, pairs, human)
        return OK
    ob = cert.obstruction
    assert ob is not None
    _emit(
        args.machine,
        [
            ("calabi", False),
            ("obstruction_from", ob.source),
            ("obstruction_to", ob.target),
            ("outset", ",".join(ob.out_set)),
        ],
        [
            "calabi: no",
            f"no positive path from {ob.source} to {ob.target}",
            f"closed out-set of {ob.source}: {{{', '.join(ob.out_set)}}}",
        ],
    )
    return PREDICATE_FALSE


def _cmd_complexity(args) -> int:
    g = _load_valid_graph(args.source)
    value, witness = complexity(g)
    chi, genus = euler_genus(g)
    _emit(
        args.machine,
        [("complexity", value), ("witness", witness), ("euler", chi), ("genus", genus)],
        [f"complexity {value} at regular level {witness} (euler {chi}, genus {genus})"],
    )
    return OK


def _cmd_harmonize(args) -> int:
    from .reduction import StuckError, harmonize

    g = _load_valid_graph(args.source)
    if args.dot_dir:
        os.makedirs(args.dot_dir, exist_ok=True)
    try:
        result, trace = harmonize(g)
    except StuckError as exc:
        print(f"stuck: {exc}", file=sys.stderr)
        return PREDICATE_FALSE
    if args.trace:
        for k, step in enumerate(trace.steps, start=1):
            print(
                f"step {k}: cut@{step.cut_angle} complexity "
                f"{step.complexity_before}->{step.complexity_after} "
                f"rewrites {step.rewrites}",
                file=sys.stderr,
            )
    if args.dot_dir:
        for k, step in enumerate(trace.steps, start=1):
            for stage, graph in (("before", step.graph_before), ("after", step.graph_after)):
                with open(os.path.join(args.dot_dir, f"step{k}_{stage}.dot"), "w") as fh:
                    fh.write(to_dot(graph))
    text = serialize_graph(result)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    if args.machine:
        final_c, _ = complexity(result)
        pairs: list[tuple[str, object]] = [
            ("steps", len(trace.steps)),
            ("calabi", True),
            ("complexity", final_c),
        ]
        if args.output:
            pairs.append(("output", args.output))
        _emit(True, pairs, [])
    elif not args.output:
        sys.stdout.write(text)
    return OK


def _cmd_surface_classify(args) -> int:
    from .surfaces import calabi_status, class_report, classify_leaves, cup_vanisher

    m = _load_surface(args.source)
    leaves = classify_leaves(m)
    cls = class_report(m)
    calabi = calabi_status(m)
    theta = cup_vanisher(m)
    theta_str = "absent" if theta is None else ",".join(str(x) for x in theta)
    pairs: list[tuple[str, object]] = [
        ("genus", cls.genus),
        ("rank", cls.rank),
        ("m1", cls.m1),
        ("split", cls.split),
        ("completely_irrational", cls.completely_irrational),
        ("calabi", calabi),
        ("has_compact_regular_leaf", leaves.has_compact_regular_leaf),
        ("all_regular_leaves_noncompact", leaves.all_regular_leaves_noncompact),
        ("compact_singular_components", leaves.compact_singular_components),
        ("generic", leaves.generic),
        ("cup_vanisher", theta_str),
    ]
    human = [
        f"surface {m.name}: genus {cls.genus}, {cls.m1} saddles",
        "periods: " + ", ".join(str(p) for p in cls.periods),
        f"rank {cls.rank}"
        + (" (completely irrational)" if cls.completely_irrational else "")
        + (", split" if cls.split else ", not split"),
        f"calabi: {'yes' if calabi else 'no'}",
        f"compact regular leaves: {'some' if leaves.has_compact_regular_leaf else 'none'}",
        f"compact singular leaf components: {leaves.compact_singular_components}",
        f"generic: {'yes' if leaves.generic else 'no'}",
        f"cup vanisher: {theta_str}",
    ]
    _emit(args.machine, pairs, human)
    return OK


def _cmd_surface_check(args) -> int:
    from .surfaces import consistency_check

    m = _load_surface(args.source)
    report = consistency_check(m)
    pairs: list[tuple[str, object]] = [("result", "pass" if report.ok else "fail")]
    human = []
    for tag in report.checked:
        bad = [v for v in report.violations if v.startswith(tag + ":")]
        pairs.append((tag, "fail" if bad else "pass"))
        human.append(f"{tag}: {'FAIL -- ' + bad[0] if bad else 'pass'}")
    human.append("all implications hold" if report.ok else "violations found")
    _emit(args.machine, pairs, human)
    return OK if report.ok else PREDICATE_FALSE


def _cmd_example(args) -> int:
    from .surfaces import builtin_example, serialize_surface

    m = builtin_example(int(args.number))
    sys.stdout.write(serialize_surface(m))
    return OK


def _cmd_dot(args) -> int:
    g = _load_valid_graph(args.source)
    text = to_dot(g)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foliagraph",
        description="Calabi decisions, complexity reduction and exact period "
        "analysis for oriented foliation graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("source", help="file path, builtin:<name>, or example:<n>")
        p.add_argument("--machine", action="store_true", help="key=value output")
        p.set_defaults(fn=fn)
        return p

    add("validate", _cmd_validate, "check the structural invariants of a graph file")
    add("calabi", _cmd_calabi, "decide the Calabi property with a certificate")
    add("complexity", _cmd_complexity, "minimal regular-level crossing count")
    p = add("harmonize", _cmd_harmonize, "reduce to a Calabi graph of equal saddle counts")
    p.add_argument("--trace", action="store_true", help="print one line per reduction step")
    p.add_argument("--dot-dir", help="write before/after DOT files per step")
    p.add_argument("-o", "--output", help="write the final graph to this file")
    add("surface-classify", _cmd_surface_classify, "leaf and cohomology-class analysis")
    add("surface-check", _cmd_surface_check, "evaluate the consistency implications")
    p = sub.add_parser("example", help="print one of the four built-in surface models")
    p.add_argument("number", choices=("1", "2", "3", "4"))
    p.set_defaults(fn=_cmd_example)
    p = add("dot", _cmd_dot, "export a graph in DOT format")
    p.add_argument("-o", "--output", help="write DOT to this file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        return _fail_parse(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
