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
# records and text lines
# ============================================================


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
        "generators": [{"rotation": [list(r) for r in g.rot], "translation": [str(t) for t in g.trans]} for g in G.generators],
    }


def _group_line(r: dict) -> str:
    # T0's basis vectors are its HNF columns over its den: the images of the unit coordinate vectors
    T0 = make_group(r["name"]).T0
    basis = ", ".join(_point(from_numerators(e, 1, T0)) for e in IDENTITY)
    return f"{r['name']:8s} frame={r['frame']:5s} point_order={r['point_order']:2d} T0=<{basis}>"


def _segment_line(e) -> str:
    return f"  orbit {e.orbit_id}  index {e.edge_index}  link {_link(e)}  {' -> '.join(map(_point, e.segment))}"


def _marked_line(label: str, c) -> str:
    image = covolume(c.image) if c.image.rank == 3 else "rank " + str(c.image.rank)
    return (
        f"  {label}: orbit {c.edge.orbit_id}, index {c.edge.edge_index}, link {_link(c.edge)}, "
        f"quotient graph {len(c.graph.vertices)}V/{len(c.graph.edges)}E, cycle image covolume {image}"
    )


def _marked_record(label: str, c) -> dict:
    return {
        "label": label, "edge": c.edge.to_json(), "cycle_image": c.image.to_json(),
        "quotient_vertices": len(c.graph.vertices), "quotient_edges": len(c.graph.edges),
    }


# ============================================================
# the subcommands
# ============================================================


def _group_name(value: str) -> str:
    try:
        return canonical_group_name(value)
    except TorsymError as exc:
        raise argparse.ArgumentTypeError(str(exc))


_GROUP = ("group", {"type": _group_name})

# Each subcommand once, in the order `torsym --help` lists them: its help and its arguments (a name and
# add_argument's keywords each), the library call that answers the parsed arguments, and one renderer per
# format it offers, text first.  A json renderer returns the document to encode.  The singular-graph and
# edges calls answer the group's name with its segments or its case map.
_COMMANDS = {
    "groups": (
        "list the six group presentations", (),
        lambda args: [_group_record(name) for name in GROUP_NAMES],
        {"text": lambda rs: "\n".join(map(_group_line, rs)), "json": lambda rs: {"groups": rs}},
    ),
    "singular-graph": (
        "singular segments of one group mod T0", (_GROUP,),
        lambda args: (args.group, singular_graph(make_group(args.group))),
        {"text": lambda r: "\n".join([f"{r[0]}: {len(r[1])} singular segments mod T0", *map(_segment_line, r[1])]),
         "json": lambda r: {"group": r[0], "edges": [e.to_json() for e in r[1]]}},
    ),
    "edges": (
        "marked edge orbits with quotient-graph data", (_GROUP,),
        # the case map lists the labels in label order, which is also their sorted order
        lambda args: (args.group, _cases(make_group(args.group))),
        {"text": lambda r: "\n".join([f"{r[0]}: {len(r[1])} marked edge orbit(s)", *(_marked_line(*m) for m in r[1].items())]),
         "json": lambda r: {"group": r[0], "edges": [_marked_record(*m) for m in r[1].items()]}},
    ),
    "classify": (
        "accepted covering lattices for a marked edge",
        (_GROUP, ("edge", {"choices": EDGE_LABELS}), ("--max-index", {"type": int, "default": 64, "help": "largest lattice index in T0"})),
        lambda args: classify_case(args.group, args.edge, args.max_index),
        {"text": rows_to_text, "json": rows_to_json, "csv": rows_to_csv},
    ),
    "table": (
        "genus census of all maximal-order actions", (("--max-genus", {"type": int, "default": 65, "help": "largest genus listed"}),),
        lambda args: theorem1_table(args.max_genus),
        {"text": table_to_text, "json": table_to_json, "csv": table_to_csv},
    ),
    "verify": (
        "check the nine connectivity and image claims, the marked-class counts and labels, the knotted "
        "column, and Riemann-Hurwitz on the 33 connected edge orbits",
        (("--max-index", {"type": int, "default": None, "help": "also check the survivor families and the census "
          "genus forms up to this lattice index, and each group's survey against the per-index route"}),),
        lambda args: verify_claims() if args.max_index is None else verify_tables(args.max_index),
        {"text": report_to_text, "json": report_to_json},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsym", description="Exact singular-set and covering-lattice tables for the six maximal-order crystallographic groups."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, arguments, call, renderers) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
        p.add_argument("--format", choices=tuple(renderers), default="text", help="output format")
        p.set_defaults(fn=call)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        value = args.fn(args)
        out = _COMMANDS[args.command][-1][args.format](value)
        print(json.dumps(out, indent=2) if args.format == "json" else out)
        # verify is the one subcommand with a verdict
        return 1 if args.command == "verify" and not value.ok else 0
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
