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
from .lattices import IDENTITY, covolume, from_numerators
from .periodic_graphs import singular_graph
from .spacegroups import GROUP_NAMES, canonical_group_name, make_group

# ============================================================
# subcommand bodies
# ============================================================


def _emit(fmt: str, value, **renderers) -> None:
    """Print value as rendered for fmt, and for fmt only; a json renderer returns the document to encode."""
    out = renderers[fmt](value)
    print(json.dumps(out, indent=2) if fmt == "json" else out)


def _point(p) -> str:
    return "(" + ", ".join(str(x) for x in p) + ")"


def _link(e) -> str:
    return "{" + ",".join(str(k) for k in e.link) + "}"


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


def _group_line(r: dict) -> str:
    # T0's basis vectors are its HNF columns over its den: the images of the unit coordinate vectors
    T0 = make_group(r["name"]).T0
    basis = ", ".join(_point(from_numerators(e, 1, T0)) for e in IDENTITY)
    return f"{r['name']:8s} frame={r['frame']:5s} point_order={r['point_order']:2d} T0=<{basis}>"


def _cmd_groups(args) -> int:
    records = [_group_record(name) for name in GROUP_NAMES]
    _emit(args.format, records, json=lambda rs: {"groups": rs}, text=lambda rs: "\n".join(map(_group_line, rs)))
    return 0


def _segment_line(e) -> str:
    return f"  orbit {e.orbit_id}  index {e.edge_index}  link {_link(e)}  {' -> '.join(map(_point, e.segment))}"


def _cmd_singular_graph(args) -> int:
    G = make_group(args.group)
    edges = singular_graph(G)
    _emit(
        args.format,
        edges,
        json=lambda es: {"group": G.name, "edges": [e.to_json() for e in es]},
        text=lambda es: "\n".join([f"{G.name}: {len(es)} singular segments mod T0", *map(_segment_line, es)]),
    )
    return 0


def _marked_line(label: str, e, lat, nv: int, ne: int) -> str:
    image = covolume(lat) if lat.rank == 3 else "rank " + str(lat.rank)
    return (
        f"  {label}: orbit {e.orbit_id}, index {e.edge_index}, "
        f"link {_link(e)}, quotient graph {nv}V/{ne}E, cycle image covolume {image}"
    )


def _cmd_edges(args) -> int:
    G = make_group(args.group)
    # the case map lists the labels in label order, which is also their sorted order
    records = [(label, c.edge, c.image, len(c.graph.vertices), len(c.graph.edges)) for label, c in _cases(G)[1].items()]
    _emit(
        args.format,
        records,
        json=lambda rs: {
            "group": G.name,
            "edges": [
                {"label": label, "edge": e.to_json(), "cycle_image": lat.to_json(),
                 "quotient_vertices": nv, "quotient_edges": ne}
                for label, e, lat, nv, ne in rs
            ],
        },
        text=lambda rs: "\n".join([f"{G.name}: {len(rs)} marked edge orbit(s)", *(_marked_line(*r) for r in rs)]),
    )
    return 0


def _cmd_classify(args) -> int:
    rows = classify_case(args.group, args.edge, args.max_index)
    _emit(args.format, rows, json=rows_to_json, csv=rows_to_csv, text=rows_to_text)
    return 0


def _cmd_table(args) -> int:
    entries = theorem1_table(args.max_genus)
    _emit(args.format, entries, json=table_to_json, csv=table_to_csv, text=table_to_text)
    return 0


def _cmd_verify(args) -> int:
    report = verify_claims() if args.max_index is None else verify_tables(args.max_index)
    _emit(args.format, report, json=report_to_json, text=report_to_text)
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
