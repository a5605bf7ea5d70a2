"""Command-line front end.

Subcommands: roots, gp (dim | fiber | enumerate), tag (reduce | restrict |
shape), classify, drum (build | ledger), and enumerate, an alias of gp
enumerate.  ``dynkin.parse_ints`` reads every integer, ``dynkin.typed_nodes``
every typed node.  Each ``_cmd_*`` handler returns its JSON payload and a
callable giving its text lines; ``main`` prints the one asked for.  ``main``
parses a request on the leaf its command words name; the full parser takes
an argv naming no leaf, or with arguments the leaf does not recognize, and
reports it with unchanged messages.  Identical inputs give byte-identical
output.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable

from . import classifier, drum as drum_mod, homogeneous, tags as tags_mod
from .dynkin import parse_diagram, parse_ints, parse_with_node_map, positive_roots, typed_nodes, weyl_order
from .errors import DomainError, quote
from .homogeneous import _marked_name

SCHEMA = 1


def _int(text: str) -> int:
    """An integer argument: one ``dynkin.parse_ints`` entry, or argparse's usage error."""
    values = parse_ints(text)
    if values is None or len(values) != 1:
        raise argparse.ArgumentTypeError(f"invalid int value: {quote(text)}")
    return values[0]


def _int_list(text: str, option: str) -> tuple[int, ...]:
    """The ``dynkin.parse_ints`` entries given to ``option``; a malformed list is a usage error."""
    values = parse_ints(text)
    if values is None:
        raise argparse.ArgumentTypeError(f"{option} expects comma-separated integers, got {quote(text)}")
    return values


def _cmd_roots(args) -> tuple[dict, Callable[[], list[str]]]:
    d = parse_diagram(args.diagram)
    system = positive_roots(d)
    payload = {
        "diagram": d.render(),
        "cartan": [list(row) for row in system.cartan],
        "positive_roots": [list(r) for r in system.roots],
        "count": len(system.roots),
        "weyl_order": weyl_order(d),
    }
    return payload, lambda: [
        f"{payload['diagram']}: {payload['count']} positive roots, Weyl order {payload['weyl_order']}",
        "cartan:",
        *(f"  {row}" for row in payload["cartan"]),
        "roots (height, coefficients):",
        *(f"  {sum(r)} {r}" for r in system.roots),
    ]


def _marked_payload(m: homogeneous.MarkedDiagram) -> dict:
    return {
        "diagram": m.diagram.render(),
        "family": "+".join(fam for fam, _ in m.diagram.components),
        "rank": m.diagram.rank,
        "marks": list(m.marks),
        "dim": homogeneous.dimension(m),
        "picard": homogeneous.picard_number(m),
    }


def _cmd_gp_dim(args) -> tuple[dict, Callable[[], list[str]]]:
    p = _marked_payload(homogeneous.parse_marked(args.marked))
    return p, lambda: [f"{_marked_name(p['diagram'], p['marks'])}: dim {p['dim']}, picard {p['picard']}"]


def _cmd_gp_fiber(args) -> tuple[dict, Callable[[], list[str]]]:
    m, node_map = homogeneous.parse_marked_with_node_map(args.marked)
    base = typed_nodes(_int_list(args.base, "--base"), node_map, args.marked)
    fiber = homogeneous.contraction_fiber(m.diagram, m.marks, base)
    payload = {
        "base_marks": list(fiber.base_marks),
        "total_marks": list(fiber.total_marks),
        "fiber": _marked_payload(fiber.fiber),
        "dropped": fiber.dropped.render() if fiber.dropped else None,
        "node_map": {str(a): b for a, b in fiber.node_map},
    }
    fib = payload["fiber"]
    return payload, lambda: [
        f"fiber of {m.render()} -> {_marked_name(m.diagram.render(), payload['base_marks'])}: "
        f"{_marked_name(fib['diagram'], fib['marks'])} (dim {fib['dim']})",
        *([f"dropped unmarked components: {payload['dropped']}"] if payload["dropped"] else []),
    ]


def _entry_payload(e: homogeneous.TwoBundleEntry, shown: dict) -> dict:
    """``e``'s payload; ``shown``, one map per request, gives each diagram's name, family and rank, read once."""
    diagram, i, j, r_minus, r_plus, dim = e
    if diagram not in shown:
        shown[diagram] = diagram.render(), diagram.components[0][0], diagram.rank
    name, family, rank = shown[diagram]
    return {
        "diagram": name,
        "family": family,
        "rank": rank,
        "marks": [i, j],
        "r_minus": r_minus,
        "r_plus": r_plus,
        "dim": dim,
    }


def _cmd_enumerate(args) -> tuple[dict, Callable[[], list[str]]]:
    shown: dict = {}
    entries = [_entry_payload(e, shown) for e in homogeneous.enumerate_two_bundles(args.max_rank)]
    return {"max_rank": args.max_rank, "count": len(entries), "entries": entries}, lambda: [
        f"{_marked_name(e['diagram'], e['marks'])}  r-={e['r_minus']} r+={e['r_plus']} dim={e['dim']}"
        for e in entries
    ] + [f"total: {len(entries)}"]


def _zero_payload(t: tags_mod.Tag) -> dict:
    """The zeros and support of ``t``, which JSON prints and text does not."""
    zero = tags_mod.zero_data(t)
    return {"zeros": list(zero.zeros), "support": list(zero.support)}


def _cmd_tag_reduce(args) -> tuple[dict, Callable[[], list[str]]]:
    t = tags_mod.parse_tag(args.tag)
    reduced = tags_mod.symplectic_reduce(t)
    payload = {"input": t.render(), "reduction": reduced.render() if reduced else None, **_zero_payload(t)}
    reason = "rank even" if t.diagram.rank % 2 == 0 else "tag is not palindromic"
    return payload, lambda: [payload["reduction"] or f"no reduction: {reason}"]


def _cmd_tag_restrict(args) -> tuple[dict, Callable[[], list[str]]]:
    t, node_map = tags_mod.parse_tag_with_node_map(args.tag)
    marks = typed_nodes(_int_list(args.marks, "--marks"), node_map, args.tag)
    restricted = tags_mod.restrict_tag(t, marks)
    payload = {
        "input": t.render(),
        "restricted": restricted.tag.render(),
        "node_map": {str(a): b for a, b in restricted.node_map},
        **_zero_payload(restricted.tag),
    }
    return payload, lambda: [
        f"{payload['restricted']} (node map: {', '.join(f'{a}->{b}' for a, b in restricted.node_map)})"
    ]


def _cmd_tag_shape(args) -> tuple[dict, Callable[[], list[str]]]:
    t = tags_mod.parse_tag(args.tag)
    shape = tags_mod.classify_tag_shape(t)
    payload = {
        "input": t.render(),
        "kind": shape.kind,
        "d": shape.d,
        "reduction": shape.reduction.render() if shape.reduction else None,
    }
    return payload, lambda: [{
        tags_mod.FIRST_NODE_ONLY: f"FirstNodeOnly(d={payload['d']})",
        tags_mod.SYMMETRIC_ENDS: f"SymmetricEnds(d={payload['d']}), reduction {payload['reduction']}",
    }.get(shape.kind, "Other")]


def _cmd_classify(args) -> tuple[dict, Callable[[], list[str]]]:
    tags = _int_list(args.tag_minus, "--tag-minus"), _int_list(args.tag_plus, "--tag-plus")
    data = classifier.TwoBundleData.from_values(args.r_minus, args.r_plus, *tags)
    check = classifier.check_shape_constraint(data) if data.r_minus == 1 else None
    shown: dict = {}
    payload = {
        "r_minus": data.r_minus,
        "r_plus": data.r_plus,
        "delta_minus": list(data.delta_minus.values),
        "delta_plus": list(data.delta_plus.values),
        "verdict": None if check is None else {
            "passed": check.passed, "kind": check.shape.kind, "d": check.shape.d, "reason": check.reason
        },
        "matches": [
            {
                **_entry_payload(m.entry, shown),
                "orientation": m.orientation,
                "product": m.product,
                "tag_plus": list(m.tag_plus.values),
                "tag_minus": list(m.tag_minus.values),
            }
            for m in classifier.match_model(data, args.max_rank)
        ],
    }

    def lines() -> list[str]:
        v = payload["verdict"]
        if v is None:
            out = ["shape check: skipped (requires r_minus = 1)"]
        elif v["passed"]:
            out = [f"shape check: pass ({v['kind']}, d={v['d']})"]
        else:
            out = [f"shape check: fail ({v['reason']})"]
        for m in payload["matches"]:
            product = " [product]" if m["product"] else ""
            out.append(f"match: {_marked_name(m['diagram'], m['marks'])} ({m['orientation']}){product}")
        return out if payload["matches"] else out + ["match: none within rank bound"]

    return payload, lines


def _drum_payload(d: drum_mod.HorosphericalDrum) -> dict:
    return {
        "diagram": d.diagram.render(),
        "marks": [d.i, d.j],
        "dim_y": d.dim_y,
        "dim_z": d.dim_z,
        "dim_v_i": d.dim_v_i,
        "dim_v_j": d.dim_v_j,
        "ambient_dim": d.ambient_dim,
        "sink": {"variety": d.sink.variety.render(), "mu": d.sink.mu, "dim": d.sink.dim},
        "source": {"variety": d.source.variety.render(), "mu": d.source.mu, "dim": d.source.dim},
        "bandwidth": drum_mod.bandwidth(d),
    }


def _build_drum(args) -> drum_mod.HorosphericalDrum:
    d, node_map = parse_with_node_map(args.diagram)
    return drum_mod.build_drum(d, *typed_nodes((args.i, args.j), node_map, args.diagram))


def _cmd_drum_build(args) -> tuple[dict, Callable[[], list[str]]]:
    p = _drum_payload(_build_drum(args))
    keys = ("diagram", "marks", "dim_y", "dim_z", "dim_v_i", "dim_v_j", "ambient_dim", "bandwidth")
    return p, lambda: [f"{key}: {p[key]}" for key in keys] + [
        f"{s}: {p[s]['variety']} (mu={p[s]['mu']}, dim={p[s]['dim']})" for s in ("sink", "source")
    ]


def _cmd_drum_ledger(args) -> tuple[dict, Callable[[], list[str]]]:
    built = _build_drum(args)
    led = drum_mod.ledger(built)
    table: dict[str, dict[str, int]] = {}
    for (divisor, curve), value in led.table:
        table.setdefault(divisor, {})[curve] = value
    payload = {
        **_drum_payload(built),
        "classes": {name: list(vec) for name, vec in led.class_vectors},
        "table": table,
        "m_plus_nef": led.m_plus_nef,
        "m_minus_nef": led.m_minus_nef,
    }
    return payload, lambda: [f"{div} . {cur} = {n}" for div, row in table.items() for cur, n in row.items()]


def _parser_and_leaves() -> tuple[argparse.ArgumentParser, dict[tuple[str, ...], argparse.ArgumentParser]]:
    """A fresh full parser and its leaves, each keyed by the command words of its ``prog``."""
    parser = argparse.ArgumentParser(
        prog="flagcalc",
        description="Exact calculus of Dynkin diagrams, two-bundle varieties, tags, and drums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def group(name: str, help_text: str):
        return sub.add_parser(name, help=help_text).add_subparsers(dest=f"{name}_command", required=True)

    def leaf(parent, name: str, func, *positionals: str, **kwargs) -> argparse.ArgumentParser:
        p = parent.add_parser(name, **kwargs)
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(func=func)
        return p

    leaf(sub, "roots", _cmd_roots, "diagram", help="positive roots, Cartan matrix, Weyl order")
    gp = group("gp", "marked-diagram geometry")
    leaf(gp, "dim", _cmd_gp_dim, "marked", help="dimension and Picard number")
    p = leaf(gp, "fiber", _cmd_gp_fiber, "marked", help="fiber of a forgetful contraction")
    p.add_argument("--base", required=True, help="comma-separated base marks")
    for parent, text in ((gp, "diagrams with two projective bundle structures"), (sub, "alias for gp enumerate")):
        leaf(parent, "enumerate", _cmd_enumerate, help=text).add_argument("--max-rank", type=_int, required=True)
    tag = group("tag", "tag calculus")
    leaf(tag, "reduce", _cmd_tag_reduce, "tag", help="symplectic reduction of a palindromic tag")
    p = leaf(tag, "restrict", _cmd_tag_restrict, "tag", help="restrict a tag to a subdiagram")
    p.add_argument("--marks", required=True, help="comma-separated nodes to delete")
    leaf(tag, "shape", _cmd_tag_shape, "tag", help="shape trichotomy of a type A tag")
    p = leaf(sub, "classify", _cmd_classify, help="match two-bundle data against the homogeneous models")
    p.add_argument("--r-minus", type=_int, required=True)
    p.add_argument("--r-plus", type=_int, required=True)
    p.add_argument("--tag-minus", required=True)
    p.add_argument("--tag-plus", required=True)
    p.add_argument("--max-rank", type=_int, default=8)
    drum = group("drum", "drum construction over a two-bundle variety")
    for name, func in (("build", _cmd_drum_build), ("ledger", _cmd_drum_ledger)):
        p = leaf(drum, name, func, "diagram")  # no help=: argparse lists one given help=None in "drum -h"
        p.add_argument("i", type=_int)
        p.add_argument("j", type=_int)
    leaves = [q for g in (sub, gp, tag, drum) for q in g.choices.values() if q.get_default("func")]
    # every leaf takes --format last, so that usage and help list its own options first
    for p in leaves:
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser, {tuple(p.prog.split()[1:]): p for p in leaves}


# main's full parser and its leaf table: one tuple, built on the first call, not at
# import, and reused.  Threads racing on that call may each build one; each is whole.
_parsers: tuple[argparse.ArgumentParser, dict[tuple[str, ...], argparse.ArgumentParser]] | None = None


def main(argv: list[str] | None = None, out=None) -> int:
    """Run one request, printing its output to ``out`` (stdout by default); return its exit code.

    The parsers are built once, on the first call, and reused; parsing does
    not change them, so every request is independent of the ones before it.

    A request whose first one or two words name a leaf ("roots", "gp dim")
    is parsed on that leaf, to which the full parser would pass the same
    arguments.  The full parser takes every other argv, one naming no leaf
    or one with arguments the leaf does not recognize, and reports it with
    unchanged messages.
    """
    global _parsers
    if _parsers is None:
        _parsers = _parser_and_leaves()
    parser, leaves = _parsers
    argv = sys.argv[1:] if argv is None else list(argv)
    words = next((n for n in (1, 2) if tuple(argv[:n]) in leaves), 0)
    try:
        args, extras = leaves[tuple(argv[:words])].parse_known_args(argv[words:]) if words else (None, None)
        if args is None or extras:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, lines = args.func(args)
    except (DomainError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DomainError) else 2
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True), file=out)
    else:
        print("\n".join(lines()), file=out)
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
