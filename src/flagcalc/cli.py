"""Command-line front end.

Subcommands: roots, gp (dim | fiber | enumerate), tag (reduce | restrict |
shape), classify, drum (build | ledger), and enumerate as an alias for
gp enumerate.  Each ``_cmd_*`` handler returns its JSON payload and a
callable making its text lines from the same values; ``main`` prints the
JSON (schema 1) or, for text, calls the callable.  Identical inputs produce
byte-identical output.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Callable

from . import classifier, drum as drum_mod, homogeneous, tags as tags_mod
from .dynkin import parse_diagram, parse_with_node_map, positive_roots, weyl_order
from .errors import DomainError
from .homogeneous import _marked_name

SCHEMA = 1

_INT_RE = re.compile(r"\s*[+-]?[0-9]+\s*")


def _int(text: str) -> int:
    """An integer argument: ASCII digits with an optional sign and surrounding spaces.

    As in the mark and tag grammars, ``int``'s digit separators (``1_0``)
    and non-ASCII digits are rejected.
    """
    if not _INT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _int_list(text: str, option: str) -> tuple[int, ...]:
    """The comma-separated ``_int`` entries given to ``option``; a malformed list is a usage error."""
    parts = text.split(",")
    if not all(_INT_RE.fullmatch(p) for p in parts):
        raise argparse.ArgumentTypeError(f"{option} expects comma-separated integers, got {text!r}")
    return tuple(int(p) for p in parts)


def _typed_nodes(nodes, node_map: dict[int, int], text: str) -> tuple[int, ...]:
    """Node arguments numbered as in the diagram typed in ``text``, in its normalized numbering."""
    if any(k not in node_map for k in nodes):
        raise DomainError(f"nodes {list(nodes)} not all in {text!r}")
    return tuple(node_map[k] for k in nodes)


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
    base = _typed_nodes(_int_list(args.base, "--base"), node_map, args.marked)
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


def _entry_payload(e: homogeneous.TwoBundleEntry) -> dict:
    diagram, i, j, r_minus, r_plus, dim = e
    return {
        "diagram": diagram.render(),
        "family": diagram.components[0][0],
        "rank": diagram.rank,
        "marks": [i, j],
        "r_minus": r_minus,
        "r_plus": r_plus,
        "dim": dim,
    }


def _cmd_enumerate(args) -> tuple[dict, Callable[[], list[str]]]:
    entries = [_entry_payload(e) for e in homogeneous.enumerate_two_bundles(args.max_rank)]
    return {"max_rank": args.max_rank, "count": len(entries), "entries": entries}, lambda: [
        f"{_marked_name(e['diagram'], e['marks'])}  r-={e['r_minus']} r+={e['r_plus']} dim={e['dim']}"
        for e in entries
    ] + [f"total: {len(entries)}"]


def _zero_payload(t: tags_mod.Tag) -> dict:
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
    marks = _typed_nodes(_int_list(args.marks, "--marks"), node_map, args.tag)
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
                **_entry_payload(m.entry),
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
    return drum_mod.build_drum(d, *_typed_nodes((args.i, args.j), node_map, args.diagram))


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagcalc",
        description="Exact calculus of Dynkin diagrams, two-bundle varieties, tags, and drums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_roots = sub.add_parser("roots", help="positive roots, Cartan matrix, Weyl order")
    p_roots.add_argument("diagram")
    add_format(p_roots)
    p_roots.set_defaults(func=_cmd_roots)

    p_gp = sub.add_parser("gp", help="marked-diagram geometry")
    gp_sub = p_gp.add_subparsers(dest="gp_command", required=True)
    p_dim = gp_sub.add_parser("dim", help="dimension and Picard number")
    p_dim.add_argument("marked")
    add_format(p_dim)
    p_dim.set_defaults(func=_cmd_gp_dim)
    p_fiber = gp_sub.add_parser("fiber", help="fiber of a forgetful contraction")
    p_fiber.add_argument("marked")
    p_fiber.add_argument("--base", required=True, help="comma-separated base marks")
    add_format(p_fiber)
    p_fiber.set_defaults(func=_cmd_gp_fiber)
    enum_help = ((gp_sub, "diagrams with two projective bundle structures"), (sub, "alias for gp enumerate"))
    for group, help_text in enum_help:
        p_enum = group.add_parser("enumerate", help=help_text)
        p_enum.add_argument("--max-rank", type=_int, required=True)
        add_format(p_enum)
        p_enum.set_defaults(func=_cmd_enumerate)

    p_tag = sub.add_parser("tag", help="tag calculus")
    tag_sub = p_tag.add_subparsers(dest="tag_command", required=True)
    p_reduce = tag_sub.add_parser("reduce", help="symplectic reduction of a palindromic tag")
    p_reduce.add_argument("tag")
    add_format(p_reduce)
    p_reduce.set_defaults(func=_cmd_tag_reduce)
    p_restrict = tag_sub.add_parser("restrict", help="restrict a tag to a subdiagram")
    p_restrict.add_argument("tag")
    p_restrict.add_argument("--marks", required=True, help="comma-separated nodes to delete")
    add_format(p_restrict)
    p_restrict.set_defaults(func=_cmd_tag_restrict)
    p_shape = tag_sub.add_parser("shape", help="shape trichotomy of a type A tag")
    p_shape.add_argument("tag")
    add_format(p_shape)
    p_shape.set_defaults(func=_cmd_tag_shape)

    p_classify = sub.add_parser("classify", help="match two-bundle data against the homogeneous models")
    p_classify.add_argument("--r-minus", type=_int, required=True)
    p_classify.add_argument("--r-plus", type=_int, required=True)
    p_classify.add_argument("--tag-minus", required=True)
    p_classify.add_argument("--tag-plus", required=True)
    p_classify.add_argument("--max-rank", type=_int, default=8)
    add_format(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_drum = sub.add_parser("drum", help="drum construction over a two-bundle variety")
    drum_sub = p_drum.add_subparsers(dest="drum_command", required=True)
    for name, func in (("build", _cmd_drum_build), ("ledger", _cmd_drum_ledger)):
        p = drum_sub.add_parser(name)
        p.add_argument("diagram")
        p.add_argument("i", type=_int)
        p.add_argument("j", type=_int)
        add_format(p)
        p.set_defaults(func=func)

    return parser


# main's parser: built on the first call, not at import, and reused.  Two
# threads racing on the first call may each build one; either parser serves.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None, out=None) -> int:
    """Run one request, printing its output to ``out`` (stdout by default); return its exit code.

    The parser is built once per process, on the first call, and reused:
    ``parse_args`` does not change it, so every request is independent of
    the ones before it.  ``build_parser()`` still returns a fresh parser.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, lines = args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True), file=out)
    else:
        print("\n".join(lines()), file=out)
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
