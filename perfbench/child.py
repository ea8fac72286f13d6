"""One benchmark child process: drives torsym through its public functions.

run.py starts this file in a fresh single-threaded process per measurement:

    python3 perfbench/child.py --workload census|survey|session|setup \
        --seed N --seconds S [--trace-file PATH]

It records every call into torsym as an operation (kind, input, summarised
output, seconds) and prints one JSON line with the operations on stdout.
Checking the outputs is left to run.py.  With --trace-file the child makes the
traced run: it walks the layers bottom-up (make_group, singular_graph,
marked_edges, edge_orbit_graph, labeled_marked_edges, the survey cold and warm,
lift checks, classify_case, theorem1_table, cli.main) so each cold cost lands
on the layer that pays it, records a span around every call and writes the
spans to PATH at exit.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from oracle import CASES, CENSUS_ARGV, GROUPS, POINT_ORDER, predicted_survey
from spans import NullTracer, Tracer
from speed import Speedometer

ROOT = Path(__file__).resolve().parents[1]

SPAN_NAMES = {
    "make_group": "spacegroups.make_group",
    "singular_graph": "periodic_graphs.singular_graph",
    "marked_edges": "periodic_graphs.marked_edges",
    "edge_orbit_graph": "periodic_graphs.edge_orbit_graph",
    "labeled_marked_edges": "classify.labeled_marked_edges",
    "survey_cold": "sublattices.survey_cold",
    "survey_warm": "sublattices.survey_warm",
    "classify": "classify.classify_case",
    "table": "classify.theorem1_table",
    "cli": "cli.main",
}


class Client:
    """Calls into torsym one at a time, timing and recording each call."""

    def __init__(self, tracer, speed):
        self.tracer = tracer
        self.speed = speed
        self.ops = []
        self.phase = "setup"

    def call(self, kind, inp, fn, summarize, tag=""):
        name = SPAN_NAMES.get(kind) or f"periodic_graphs.{inp['route']}"
        with self.tracer.span(name, tag):
            sampled = self.speed.total
            t0 = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # one failed call must not stop the run
                seconds = time.perf_counter() - t0 - (self.speed.total - sampled)
                traceback.print_exc()
                self.ops.append(
                    {"kind": kind, "layer": name.split(".")[0], "phase": self.phase,
                     "input": inp, "ok": False, "output": repr(exc), "seconds": seconds}
                )
                return None
            seconds = time.perf_counter() - t0 - (self.speed.total - sampled)
        self.ops.append(
            {"kind": kind, "layer": name.split(".")[0], "phase": self.phase,
             "input": inp, "ok": True, "output": summarize(result), "seconds": seconds}
        )
        return result


# ------------------------------------------------------------------
# output summaries (plain JSON values the oracle compares)
# ------------------------------------------------------------------


def _row(r):
    return [r.family.tag, r.family.n, r.n, r.m, r.constraint, r.lattice_index,
            r.group_order, r.genus, r.knotted]


def _rows(rows):
    return [_row(r) for r in rows]


def _entries(entries):
    return [
        [e.genus, e.group_order, e.unknotted, e.knotted,
         [[column, r.group, r.edge_label, *_row(r)] for column, r in e.actions]]
        for e in entries
    ]


def _survey(group):
    order = POINT_ORDER[group]
    return lambda out: [
        [pi1 // order, fam.tag, fam.n, fam.m, pi1, L.to_json()] for L, fam, pi1 in out
    ]


# ------------------------------------------------------------------
# layer calls
# ------------------------------------------------------------------


def make_groups(client, torsym):
    def summary(G):
        return [G.name, G.point_order, str(torsym.covolume(G.T0))]

    return {
        name: client.call("make_group", {"group": name}, lambda: torsym.make_group(name), summary, name)
        for name in GROUPS
    }


def survey(client, torsym, groups, bounds, kind="survey_cold"):
    return {
        name: client.call(
            kind,
            {"group": name, "max_index": bounds[name]},
            lambda: torsym.normal_translation_subgroups(G, bounds[name]),
            _survey(name),
            name,
        )
        for name, G in groups.items()
    }


def run_cli(client, torsym, argv):
    cli = torsym.cli
    inner = cli.theorem1_table

    def spanned(max_genus):
        with client.tracer.span("classify.theorem1_table", "cli"):
            return inner(max_genus)

    def main():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return [code, buf.getvalue()]

    if client.tracer.enabled:
        cli.theorem1_table = spanned
    try:
        client.call("cli", {"argv": list(argv)}, main, lambda out: out)
    finally:
        cli.theorem1_table = inner


def lift(client, torsym, graph, q, L):
    fn = getattr(torsym, q["route"])
    client.call("lift", q, lambda: fn(graph, L), bool, q["group"])


def classify(client, torsym, q):
    client.call(
        "classify", q, lambda: torsym.classify_case(q["group"], q["edge"], q["max_index"]),
        _rows, q["group"],
    )


def table(client, torsym, q):
    client.call("table", q, lambda: torsym.theorem1_table(q["max_genus"]), _entries)


def case_graphs(client, torsym, groups):
    """Labelled marked edges of every group and the quotient graph of each of the nine cases."""
    labeled = {
        name: client.call(
            "labeled_marked_edges", {"group": name},
            lambda: torsym.labeled_marked_edges(name), sorted, name,
        )
        for name in groups
    }
    return {
        (group, edge): client.call(
            "edge_orbit_graph", {"group": group, "edge": edge},
            lambda: torsym.edge_orbit_graph(groups[group], labeled[group][edge]),
            lambda g: [len(g.vertices), len(g.edges)], group,
        )
        for group, edge in CASES
    }


def run_stream(client, torsym, graphs, seed, seconds):
    """Closed loop, one client: next query only after the previous answer.

    Runs whole blocks until MIN_BLOCKS are done and the queries have kept the
    program busy for `seconds`.  Returns the number of blocks run.
    """
    client.phase = "run"
    busy = 0.0
    count = 0
    for block in workloads.session_blocks(seed):
        lattices = [
            torsym.instantiate(q["tag"], q["u"], q["m"]) if q["kind"] == "lift" else None
            for q in block
        ]
        start = len(client.ops)
        for q, L in zip(block, lattices):
            if q["kind"] == "classify":
                classify(client, torsym, q)
            elif q["kind"] == "table":
                table(client, torsym, q)
            else:
                lift(client, torsym, graphs[(q["group"], q["edge"])], q, L)
        busy += sum(op["seconds"] for op in client.ops[start:])
        count += 1
        if count >= workloads.MIN_BLOCKS and busy >= seconds:
            return count


# ------------------------------------------------------------------
# workloads
# ------------------------------------------------------------------


def session_setup(client, torsym, groups):
    """Warm-up: labelled marked edges, the nine case graphs, the survey to index 128."""
    graphs = case_graphs(client, torsym, groups)
    survey(client, torsym, groups, dict.fromkeys(groups, workloads.SESSION_SURVEY_MAX_INDEX))
    return graphs


def walk(client, torsym, groups, workload, seed, seconds):
    """Traced run: every layer bottom-up, at the workload's sizes."""
    for name, G in groups.items():
        client.call("singular_graph", {"group": name}, lambda: torsym.singular_graph(G), len, name)
    for name, G in groups.items():
        client.call("marked_edges", {"group": name}, lambda: torsym.marked_edges(G), len, name)
    graphs = case_graphs(client, torsym, groups)
    if workload == "survey":
        bounds = dict.fromkeys(groups, workloads.SURVEY_MAX_INDEX)
    elif workload == "census":
        bounds = {name: workloads.census_bound(name) for name in groups}
    else:
        bounds = dict.fromkeys(groups, workloads.SESSION_SURVEY_MAX_INDEX)
    lattices = survey(client, torsym, groups, bounds)
    survey(client, torsym, groups, bounds, "survey_warm")
    if workload == "session":
        blocks = run_stream(client, torsym, graphs, seed, seconds)
    else:
        blocks = 0
        client.phase = "run"
        for group, edge in CASES:
            for L, fam, pi1 in lattices[group] or ():
                if pi1 // POINT_ORDER[group] > workloads.LIFT_MAX_INDEX:
                    continue
                for route in workloads.LIFT_ROUTES:
                    q = {"group": group, "edge": edge, "tag": fam.tag, "u": fam.n, "m": fam.m, "route": route}
                    lift(client, torsym, graphs[(group, edge)], q, L)
        for group, edge in CASES:
            classify(client, torsym, {"group": group, "edge": edge, "max_index": workloads.census_bound(group)})
        table(client, torsym, {"max_genus": workloads.CENSUS_MAX_GENUS})
    run_cli(client, torsym, CENSUS_ARGV)
    return blocks


def references(torsym, ops):
    """Family lattices the survey outputs are compared with, built by torsym.instantiate."""
    out = {}
    for op in ops:
        if op["kind"] == "survey_cold":
            group = op["input"]["group"]
            for _, tag, u, m, _ in predicted_survey(group, op["input"]["max_index"]):
                out[json.dumps([group, tag, u, m])] = torsym.instantiate(tag, u, m).to_json()
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("census", "survey", "session", "setup"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace-file")
    args = p.parse_args(argv)

    # the traced run reports raw per-layer times, so it samples no speed
    tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}") if args.trace_file else NullTracer()
    speed = Speedometer()
    if not tracer.enabled:
        speed.start()
    client = Client(tracer, speed)
    blocks = 0
    with tracer.span("run", args.workload):
        sys.path.insert(0, str(ROOT / "src"))
        import torsym
        import torsym.cli

        if not Path(torsym.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"torsym imported from {torsym.__file__}, not from the checkout")
        groups = make_groups(client, torsym)
        if tracer.enabled:
            setup_done = time.monotonic()
            blocks = walk(client, torsym, groups, args.workload, args.seed, args.seconds)
        elif args.workload == "session":
            graphs = session_setup(client, torsym, groups)
            speed.sample()
            setup_done = time.monotonic()
            blocks = run_stream(client, torsym, graphs, args.seed, args.seconds)
        else:
            speed.sample()
            setup_done = time.monotonic()
            client.phase = "run"
            if args.workload == "census":
                run_cli(client, torsym, CENSUS_ARGV)
            elif args.workload == "survey":
                survey(client, torsym, groups, dict.fromkeys(GROUPS, workloads.SURVEY_MAX_INDEX))
    if tracer.enabled:
        tracer.write(args.trace_file)
    else:
        speed.stop()
    result = {
        "setup_done": setup_done,
        "blocks": blocks,
        "ops": client.ops,
        "references": references(torsym, client.ops),
        "speed_samples": speed.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {
            "python": sys.version.split()[0],
            "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        },
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
