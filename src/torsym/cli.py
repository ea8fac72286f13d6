"""Command-line interface for group data, singular graphs, and classification tables."""

import argparse
import json
import sys

from .classify import (
    EDGE_LABELS,
    _cases,
    classify_case,
    report_to_json,
    report_to_text,
    rows_to_csv,
    rows_to_json,
    rows_to_text,
    table_to_csv,
    table_to_json,
    table_to_text,
    theorem1_table,
    verify_claims,
    verify_tables,
)
from .errors import InvariantViolation, TorsymError
from .lattices import covolume
from .periodic_graphs import singular_graph
from .spacegroups import GROUP_NAMES, canonical_group_name, make_group

# ============================================================
# subcommand bodies
# ============================================================


def _group_record(name: str) -> dict:
    G = make_group(name)
    return {
        "name": G.name,
        "frame": G.frame.name,
        "point_order": G.point_order,
        "t0": G.T0.to_json(),
        "t0_covolume": str(covolume(G.T0)),
        "generators": [
            {"rotation": [list(r) for r in g.rot], "translation": [str(t) for t in g.trans]}
            for g in G.generators
        ],
    }


def _cmd_groups(args) -> int:
    records = [_group_record(name) for name in GROUP_NAMES]
    if args.format == "json":
        print(json.dumps({"groups": records}, indent=2))
    else:
        for r in records:
            basis = ", ".join(
                "(" + ", ".join(str(x) for x in v) + ")"
                for v in make_group(r["name"]).T0.vectors()
            )
            print(
                f"{r['name']:8s} frame={r['frame']:5s} point_order={r['point_order']:2d} "
                f"T0=<{basis}>"
            )
    return 0


def _cmd_singular_graph(args) -> int:
    G = make_group(args.group)
    edges = singular_graph(G)
    if args.format == "json":
        print(json.dumps({"group": G.name, "edges": [e.to_json() for e in edges]}, indent=2))
    else:
        print(f"{G.name}: {len(edges)} singular segments mod T0")
        for e in edges:
            a, b = e.segment
            seg = " -> ".join(
                "(" + ", ".join(str(x) for x in p) + ")" for p in (a, b)
            )
            link = ",".join(str(k) for k in e.link)
            print(f"  orbit {e.orbit_id}  index {e.edge_index}  link {{{link}}}  {seg}")
    return 0


def _cmd_edges(args) -> int:
    G = make_group(args.group)
    # the case map lists the labels in label order, which is also their sorted order
    records = [(label, c.edge, c.image, len(c.graph.vertices), len(c.graph.edges)) for label, c in _cases(G)[1].items()]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "group": G.name,
                    "edges": [
                        {
                            "label": label,
                            "edge": e.to_json(),
                            "cycle_image": lat.to_json(),
                            "quotient_vertices": nv,
                            "quotient_edges": ne,
                        }
                        for label, e, lat, nv, ne in records
                    ],
                },
                indent=2,
            )
        )
    else:
        print(f"{G.name}: {len(records)} marked edge orbit(s)")
        for label, e, lat, nv, ne in records:
            link = ",".join(str(k) for k in e.link)
            print(
                f"  {label}: orbit {e.orbit_id}, index {e.edge_index}, "
                f"link {{{link}}}, quotient graph {nv}V/{ne}E, "
                f"cycle image covolume {covolume(lat) if lat.rank == 3 else 'rank ' + str(lat.rank)}"
            )
    return 0


def _cmd_classify(args) -> int:
    rows = classify_case(args.group, args.edge, args.max_index)
    if args.format == "json":
        print(json.dumps(rows_to_json(rows), indent=2))
    elif args.format == "csv":
        print(rows_to_csv(rows))
    else:
        print(rows_to_text(rows))
    return 0


def _cmd_table(args) -> int:
    entries = theorem1_table(args.max_genus)
    if args.format == "json":
        print(json.dumps(table_to_json(entries), indent=2))
    elif args.format == "csv":
        print(table_to_csv(entries))
    else:
        print(table_to_text(entries))
    return 0


def _cmd_verify(args) -> int:
    if args.max_index is None:
        report = verify_claims()
    else:
        report = verify_tables(args.max_index)
    if args.format == "json":
        print(json.dumps(report_to_json(report), indent=2))
    else:
        print(report_to_text(report))
    return 0 if report.ok else 1


# ============================================================
# argument parsing
# ============================================================


def _add_format(p: argparse.ArgumentParser, choices=("text", "json")) -> None:
    p.add_argument("--format", choices=choices, default="text", help="output format")


def _group_name(value: str) -> str:
    try:
        return canonical_group_name(value)
    except TorsymError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsym",
        description="Exact singular-set and covering-lattice tables for the six "
        "maximal-order crystallographic groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("groups", help="list the six group presentations")
    _add_format(p)
    p.set_defaults(fn=_cmd_groups)

    p = sub.add_parser("singular-graph", help="singular segments of one group mod T0")
    p.add_argument("group", type=_group_name)
    _add_format(p)
    p.set_defaults(fn=_cmd_singular_graph)

    p = sub.add_parser("edges", help="marked edge orbits with quotient-graph data")
    p.add_argument("group", type=_group_name)
    _add_format(p)
    p.set_defaults(fn=_cmd_edges)

    p = sub.add_parser("classify", help="accepted covering lattices for a marked edge")
    p.add_argument("group", type=_group_name)
    p.add_argument("edge", choices=EDGE_LABELS)
    p.add_argument("--max-index", type=int, default=64, help="largest lattice index in T0")
    _add_format(p, ("text", "json", "csv"))
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("table", help="genus census of all maximal-order actions")
    p.add_argument("--max-genus", type=int, default=65, help="largest genus listed")
    _add_format(p, ("text", "json", "csv"))
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("verify", help="check the nine connectivity and image claims")
    p.add_argument(
        "--max-index",
        type=int,
        default=None,
        help="also compare survivor families up to this lattice index",
    )
    _add_format(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (TorsymError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass  # reported below, once leaving the handler has freed what the failing call built
    bounds = [f"--{k.replace('_', '-')} {v}" for k, v in vars(args).items() if k.startswith("max_") and v is not None]
    print(f"error: out of memory: {' '.join([args.command, *bounds])}", file=sys.stderr)
    return 4


if __name__ == "__main__":
    sys.exit(main())
