"""Command-line front end.

Subcommands: roots, gp (dim | fiber | enumerate), tag (reduce | restrict |
shape), classify, drum (build | ledger), and enumerate as an alias for
gp enumerate.  Output is plain text or JSON (schema 1); identical inputs
produce byte-identical output.  Exit codes: 0 success, 1 domain error,
2 usage error.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

from . import classifier, drum as drum_mod, homogeneous, tags as tags_mod
from .dynkin import parse_diagram, parse_with_node_map, positive_roots, weyl_order
from .errors import DomainError

SCHEMA = 1


def _emit_json(payload: dict, out) -> None:
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(payload, sort_keys=True), file=out)


def _cmd_roots(args, out) -> int:
    d = parse_diagram(args.diagram)
    system = positive_roots(d)
    if args.format == "json":
        _emit_json(
            {
                "diagram": d.render(),
                "cartan": [list(row) for row in system.cartan],
                "positive_roots": [list(r) for r in system.roots],
                "count": len(system.roots),
                "weyl_order": weyl_order(d),
            },
            out,
        )
        return 0
    print(f"{d.render()}: {len(system.roots)} positive roots, Weyl order {weyl_order(d)}", file=out)
    print("cartan:", file=out)
    for row in system.cartan:
        print(f"  {list(row)}", file=out)
    print("roots (height, coefficients):", file=out)
    for r in system.roots:
        print(f"  {sum(r)} {tuple(r)}", file=out)
    return 0


def _marked_payload(m: homogeneous.MarkedDiagram) -> dict:
    return {
        "diagram": m.diagram.render(),
        "family": "+".join(fam for fam, _ in m.diagram.components),
        "rank": m.diagram.rank,
        "marks": list(m.marks),
        "dim": homogeneous.dimension(m),
        "picard": homogeneous.picard_number(m),
    }


def _cmd_gp_dim(args, out) -> int:
    m = homogeneous.parse_marked(args.marked)
    if args.format == "json":
        _emit_json(_marked_payload(m), out)
        return 0
    print(f"{m.render()}: dim {homogeneous.dimension(m)}, picard {homogeneous.picard_number(m)}", file=out)
    return 0


_INT_RE = re.compile(r"\s*[+-]?[0-9]+\s*")


def _int_list(text: str, option: str) -> tuple[int, ...]:
    """The comma-separated integers given to ``option``; a malformed list is a usage error.

    Each entry is ASCII digits, as in the mark and tag grammars, with an
    optional sign and surrounding spaces: ``int``'s digit separators
    (``1_0``) and non-ASCII digits are rejected.
    """
    parts = text.split(",")
    if not all(_INT_RE.fullmatch(p) for p in parts):
        raise argparse.ArgumentTypeError(f"{option} expects comma-separated integers, got {text!r}")
    return tuple(int(p) for p in parts)


def _typed_nodes(nodes, node_map: dict[int, int], text: str) -> tuple[int, ...]:
    """Node arguments numbered as in the diagram typed in ``text``, in its normalized numbering."""
    if any(k not in node_map for k in nodes):
        raise DomainError(f"nodes {list(nodes)} not all in {text!r}")
    return tuple(node_map[k] for k in nodes)


def _cmd_gp_fiber(args, out) -> int:
    m, node_map = homogeneous.parse_marked_with_node_map(args.marked)
    base = _typed_nodes(_int_list(args.base, "--base"), node_map, args.marked)
    fiber = homogeneous.contraction_fiber(m.diagram, m.marks, base)
    if args.format == "json":
        _emit_json(
            {
                "base_marks": list(fiber.base_marks),
                "total_marks": list(fiber.total_marks),
                "fiber": _marked_payload(fiber.fiber),
                "dropped": fiber.dropped.render() if fiber.dropped else None,
                "node_map": {str(a): b for a, b in fiber.node_map},
            },
            out,
        )
        return 0
    base_str = ",".join(str(b) for b in fiber.base_marks)
    print(
        f"fiber of {m.render()} -> {m.diagram.render()}{{{base_str}}}: "
        f"{fiber.fiber.render()} (dim {homogeneous.dimension(fiber.fiber)})",
        file=out,
    )
    if fiber.dropped:
        print(f"dropped unmarked components: {fiber.dropped.render()}", file=out)
    return 0


def _entry_payload(e: homogeneous.TwoBundleEntry) -> dict:
    return {
        "diagram": e.diagram.render(),
        "family": e.diagram.components[0][0],
        "rank": e.diagram.rank,
        "marks": [e.i, e.j],
        "r_minus": e.r_minus,
        "r_plus": e.r_plus,
        "dim": e.dim,
    }


def _cmd_enumerate(args, out) -> int:
    entries = homogeneous.enumerate_two_bundles(args.max_rank)
    if args.format == "json":
        _emit_json(
            {
                "max_rank": args.max_rank,
                "count": len(entries),
                "entries": [_entry_payload(e) for e in entries],
            },
            out,
        )
        return 0
    for e in entries:
        print(f"{e.render()}  r-={e.r_minus} r+={e.r_plus} dim={e.dim}", file=out)
    print(f"total: {len(entries)}", file=out)
    return 0


def _cmd_tag_reduce(args, out) -> int:
    t = tags_mod.parse_tag(args.tag)
    reduced = tags_mod.symplectic_reduce(t)
    if args.format == "json":
        _emit_json(
            {
                "input": t.render(),
                "reduction": reduced.render() if reduced else None,
                "zeros": list(tags_mod.zero_data(t).zeros),
                "support": list(tags_mod.zero_data(t).support),
            },
            out,
        )
        return 0
    if reduced is None:
        reason = "rank even" if t.diagram.rank % 2 == 0 else "tag is not palindromic"
        print(f"no reduction: {reason}", file=out)
    else:
        print(reduced.render(), file=out)
    return 0


def _cmd_tag_restrict(args, out) -> int:
    t, node_map = tags_mod.parse_tag_with_node_map(args.tag)
    marks = _typed_nodes(_int_list(args.marks, "--marks"), node_map, args.tag)
    restricted = tags_mod.restrict_tag(t, marks)
    if args.format == "json":
        _emit_json(
            {
                "input": t.render(),
                "restricted": restricted.tag.render(),
                "node_map": {str(a): b for a, b in restricted.node_map},
                "zeros": list(tags_mod.zero_data(restricted.tag).zeros),
                "support": list(tags_mod.zero_data(restricted.tag).support),
            },
            out,
        )
        return 0
    node_map = ", ".join(f"{a}->{b}" for a, b in restricted.node_map)
    print(f"{restricted.tag.render()} (node map: {node_map})", file=out)
    return 0


def _cmd_tag_shape(args, out) -> int:
    t = tags_mod.parse_tag(args.tag)
    shape = tags_mod.classify_tag_shape(t)
    if args.format == "json":
        _emit_json(
            {
                "input": t.render(),
                "kind": shape.kind,
                "d": shape.d,
                "reduction": shape.reduction.render() if shape.reduction else None,
            },
            out,
        )
        return 0
    if shape.kind == tags_mod.FIRST_NODE_ONLY:
        print(f"FirstNodeOnly(d={shape.d})", file=out)
    elif shape.kind == tags_mod.SYMMETRIC_ENDS:
        print(f"SymmetricEnds(d={shape.d}), reduction {shape.reduction.render()}", file=out)
    else:
        print("Other", file=out)
    return 0


def _cmd_classify(args, out) -> int:
    tags = _int_list(args.tag_minus, "--tag-minus"), _int_list(args.tag_plus, "--tag-plus")
    data = classifier.TwoBundleData.from_values(args.r_minus, args.r_plus, *tags)
    verdict = classifier.check_shape_constraint(data) if data.r_minus == 1 else None
    matches = classifier.match_model(data, args.max_rank)
    if args.format == "json":
        _emit_json(
            {
                "r_minus": data.r_minus,
                "r_plus": data.r_plus,
                "delta_minus": list(data.delta_minus.values),
                "delta_plus": list(data.delta_plus.values),
                "verdict": None
                if verdict is None
                else {
                    "passed": verdict.passed,
                    "kind": verdict.shape.kind,
                    "d": verdict.shape.d,
                    "reason": verdict.reason,
                },
                "matches": [
                    {
                        **_entry_payload(m.entry),
                        "orientation": m.orientation,
                        "product": m.product,
                        "tag_plus": list(m.tag_plus.values),
                        "tag_minus": list(m.tag_minus.values),
                    }
                    for m in matches
                ],
            },
            out,
        )
        return 0
    if verdict is None:
        print("shape check: skipped (requires r_minus = 1)", file=out)
    elif verdict.passed:
        print(f"shape check: pass ({verdict.shape.kind}, d={verdict.shape.d})", file=out)
    else:
        print(f"shape check: fail ({verdict.reason})", file=out)
    if matches:
        for m in matches:
            extra = " [product]" if m.product else ""
            print(f"match: {m.entry.render()} ({m.orientation}){extra}", file=out)
    else:
        print("match: none within rank bound", file=out)
    return 0


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


def _cmd_drum_build(args, out) -> int:
    built = _build_drum(args)
    if args.format == "json":
        _emit_json(_drum_payload(built), out)
        return 0
    payload = _drum_payload(built)
    for key in ("diagram", "marks", "dim_y", "dim_z", "dim_v_i", "dim_v_j", "ambient_dim", "bandwidth"):
        print(f"{key}: {payload[key]}", file=out)
    print(f"sink: {built.sink.variety.render()} (mu={built.sink.mu}, dim={built.sink.dim})", file=out)
    print(f"source: {built.source.variety.render()} (mu={built.source.mu}, dim={built.source.dim})", file=out)
    return 0


def _cmd_drum_ledger(args, out) -> int:
    built = _build_drum(args)
    led = drum_mod.ledger(built)
    if args.format == "json":
        table: dict[str, dict[str, int]] = {}
        for (divisor, curve), value in led.table:
            table.setdefault(divisor, {})[curve] = value
        _emit_json(
            {
                **_drum_payload(built),
                "classes": {name: list(vec) for name, vec in led.class_vectors},
                "table": table,
                "m_plus_nef": led.m_plus_nef,
                "m_minus_nef": led.m_minus_nef,
            },
            out,
        )
        return 0
    for (divisor, curve), value in led.table:
        print(f"{divisor} . {curve} = {value}", file=out)
    return 0


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
    p_enum = gp_sub.add_parser("enumerate", help="diagrams with two projective bundle structures")
    p_enum.add_argument("--max-rank", type=int, required=True)
    add_format(p_enum)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_enum_top = sub.add_parser("enumerate", help="alias for gp enumerate")
    p_enum_top.add_argument("--max-rank", type=int, required=True)
    add_format(p_enum_top)
    p_enum_top.set_defaults(func=_cmd_enumerate)

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
    p_classify.add_argument("--r-minus", type=int, required=True)
    p_classify.add_argument("--r-plus", type=int, required=True)
    p_classify.add_argument("--tag-minus", required=True)
    p_classify.add_argument("--tag-plus", required=True)
    p_classify.add_argument("--max-rank", type=int, default=8)
    add_format(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_drum = sub.add_parser("drum", help="drum construction over a two-bundle variety")
    drum_sub = p_drum.add_subparsers(dest="drum_command", required=True)
    for name, func in (("build", _cmd_drum_build), ("ledger", _cmd_drum_ledger)):
        p = drum_sub.add_parser(name)
        p.add_argument("diagram")
        p.add_argument("i", type=int)
        p.add_argument("j", type=int)
        add_format(p)
        p.set_defaults(func=func)

    return parser


# main's parser: built on the first call, not at import, and reused.  Two
# threads racing on the first call may each build one; either parser serves.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None, out=None) -> int:
    """Run one request; return its exit code.

    The parser is built once per process, on the first call, and reused:
    ``parse_args`` does not change it, so every request is independent of
    the ones before it.  ``build_parser()`` still returns a fresh parser.
    """
    global _parser
    out = sys.stdout if out is None else out
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, out)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
