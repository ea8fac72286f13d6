"""torsym benchmark: cold census, cold sublattice survey, warm query session.

    python3 perfbench/run.py --workload census|survey|session|all \
        --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory and torsym is
imported from its src/.  Every measurement is a fresh single-threaded child
process (perfbench/child.py), started one at a time.  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it are the readable report, and .perfbench/ keeps one result file per
run with the environment record.  The exit code is 0 only when every
operation matched the closed-form oracle (perfbench/oracle.py) and the
benchmark's self-tests passed.

--trace 0 reports the end-to-end metrics.  --trace 1 makes the traced run: a
child that walks every layer bottom-up with a span around each call, and
reports per-layer self time and counts.  See perfbench/README.md for the
workloads and the layer -> end-to-end map.
"""

import argparse
import copy
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads
from spans import self_times
from speed import sampled_before, scale

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".perfbench"
WORKLOADS = ("census", "survey", "session")
LABELS = {"census": "cold", "survey": "cold", "session": "warm"}
# cold main children per run; wall_s and peak_rss_mb are their medians
MAIN_REPEATS = {"census": 1, "survey": 2, "session": 1}
# set-up-only children per census or survey run, so setup_s is a median of five
SETUP_CHILDREN = {"census": 4, "survey": 3, "session": 0}
# every run ends within this many seconds
RUN_DEADLINE_S = 170

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("queries_per_s", "1/s"),
)
LAYERS = ("spacegroups", "periodic_graphs", "sublattices", "classify", "cli")
PER_LAYER = (
    [("spacegroups.make_group_s", "s")]
    + [("periodic_graphs.singular_graph_s", "s")]
    + [(f"periodic_graphs.singular_graph_s.{g}", "s") for g in oracle.GROUPS]
    + [
        ("periodic_graphs.marked_edges_s", "s"),
        ("periodic_graphs.edge_orbit_graph_s", "s"),
        ("periodic_graphs.lift_connected_s", "s"),
        ("periodic_graphs.lift_connected_bruteforce_s", "s"),
        ("periodic_graphs.lift_calls", "count"),
        ("periodic_graphs.singular_segments", "count"),
        ("periodic_graphs.marked_orbits", "count"),
        ("sublattices.survey_cold_s", "s"),
    ]
    + [(f"sublattices.survey_cold_s.{g}", "s") for g in oracle.GROUPS]
    + [
        ("sublattices.survey_warm_s", "s"),
        ("sublattices.lattices_kept", "count"),
        ("sublattices.ms_per_lattice_kept", "ms"),
        ("classify.labeled_marked_edges_s", "s"),
        ("classify.classify_case_s", "s"),
        ("classify.theorem1_table_s", "s"),
        ("classify.rows", "count"),
        ("cli.main_s", "s"),
        ("cli.emit_s", "s"),
    ]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [("trace.overhead_s", "s")]
)
QUERY_KINDS = (("classify", (50, 90)), ("table", (50,)), ("lift", (50, 90)))
# per-layer metric name -> span name whose summed self time it reports
SELF_TIME = {
    "spacegroups.make_group_s": "spacegroups.make_group",
    "periodic_graphs.singular_graph_s": "periodic_graphs.singular_graph",
    "periodic_graphs.marked_edges_s": "periodic_graphs.marked_edges",
    "periodic_graphs.edge_orbit_graph_s": "periodic_graphs.edge_orbit_graph",
    "periodic_graphs.lift_connected_s": "periodic_graphs.lift_connected",
    "periodic_graphs.lift_connected_bruteforce_s": "periodic_graphs.lift_connected_bruteforce",
    "sublattices.survey_cold_s": "sublattices.survey_cold",
    "sublattices.survey_warm_s": "sublattices.survey_warm",
    "classify.labeled_marked_edges_s": "classify.labeled_marked_edges",
    "classify.classify_case_s": "classify.classify_case",
    "classify.theorem1_table_s": "classify.theorem1_table",
    "cli.emit_s": "cli.main",
}
PER_GROUP = {
    "periodic_graphs.singular_graph_s": "periodic_graphs.singular_graph",
    "sublattices.survey_cold_s": "sublattices.survey_cold",
}


class BenchError(Exception):
    """A child could not be run to the end."""


# ------------------------------------------------------------------
# children
# ------------------------------------------------------------------


def spawn(workload, seed, seconds, deadline, trace_file=None):
    """Run one child; return (result, raw seconds from spawn to end of set-up, raw wall seconds)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} child ran past the {RUN_DEADLINE_S} s deadline")
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["setup_done"] - t0, wall


# ------------------------------------------------------------------
# checks
# ------------------------------------------------------------------


def check_stream(result, seed):
    """The session child ran exactly the first `blocks` blocks of the seeded stream."""
    want = [q for block in workloads.first_blocks(seed, result["blocks"]) for q in block]
    got = [op["input"] for op in result["ops"] if op["phase"] == "run" and op["kind"] in ("classify", "table", "lift")]
    if result["blocks"] and got[: len(want)] != want:
        return "session queries differ from the seeded stream"
    return None


def _corrupt(op):
    """A copy of an operation whose output is wrong in one place, or None if the kind has none."""
    bad = copy.deepcopy(op)
    out = bad["output"]
    kind = op["kind"]
    if kind == "make_group":
        out[1] += 1
    elif kind in ("singular_graph", "marked_edges"):
        bad["output"] = out + 1
    elif kind == "edge_orbit_graph":
        out[1] = 0
    elif kind == "labeled_marked_edges":
        bad["output"] = out[:-1]
    elif kind in ("survey_cold", "survey_warm"):
        lattices = [row[5] for row in out]
        i = next((i for i in range(1, len(out)) if lattices[i] != lattices[0]), None)
        if i is None:
            return None
        out[0][5], out[i][5] = out[i][5], out[0][5]  # one survey lattice swapped
    elif kind == "lift":
        bad["output"] = not out
    elif kind == "classify":
        bad["output"] = out[:-1] if out else [["CUBIC_PRIMITIVE", 1, 1, None, "none", 1, 24, 3, False]]
    elif kind == "table":
        if not out:
            return None
        out[-1][4] = out[-1][4][:-1]  # one census row dropped
    elif kind == "cli":
        doc = json.loads(out[1])
        doc["genera"][0]["actions"].pop()
        out[1] = json.dumps(doc, indent=2) + "\n"
    return bad


def self_tests(ops, references, seed):
    """The oracle rejects a corrupted output of each kind; the session stream is reproducible."""
    errors = []
    seen = set()
    for op in ops:
        if not op["ok"] or op["kind"] in seen:
            continue
        seen.add(op["kind"])
        bad = _corrupt(op)
        if bad is not None and oracle.check_op(bad, references) is None:
            errors.append(f"self-test: oracle accepted a corrupted {op['kind']} output")
        if op["kind"] == "cli":
            entries = oracle.census_entries(json.loads(bad["output"][1]))
            if oracle.check_table({"max_genus": workloads.CENSUS_MAX_GENUS}, entries) is None:
                errors.append("self-test: census check accepted a census with one row dropped")
    digest = workloads.stream_digest(workloads.first_blocks(seed, 3))
    if digest != workloads.stream_digest(workloads.first_blocks(seed, 3)):
        errors.append("self-test: one seed gave two different session streams")
    if digest == workloads.stream_digest(workloads.first_blocks(seed + 1, 3)):
        errors.append("self-test: two seeds gave the same session stream")
    return errors


# ------------------------------------------------------------------
# environment
# ------------------------------------------------------------------


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed, workload, child_env):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "torsym").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": child_env["python"],
        "numpy": child_env["numpy"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads_per_child": 1,
        "seed": seed,
        "label": LABELS[workload],
    }


# ------------------------------------------------------------------
# measurement
# ------------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, -(-q * len(s) // 100) - 1)]


def check_all(results, seed):
    """(attempted, failed, error lines) over every operation of every child, plus the self-tests."""
    attempted = failed = 0
    errors = []
    for result in results:
        for op in result["ops"]:
            attempted += 1
            err = oracle.check_op(op, result["references"])
            if err:
                failed += 1
                errors.append(err)
        err = check_stream(result, seed)
        if err:
            failed += 1
            errors.append(err)
    errors += self_tests(results[0]["ops"], results[0]["references"], seed)
    return attempted, failed, errors


def _setup_time(result, raw):
    """Set-up seconds at reference speed, without the sampler's own time."""
    samples, done = result["speed_samples"], result["setup_done"]
    return (raw - sampled_before(samples, done)) * scale(samples, end=done)


def measure_untraced(workload, seed, seconds, deadline):
    """End-to-end metrics; every time is scaled to the reference speed (speed.py)."""
    mains = [spawn(workload, seed, seconds, deadline) for _ in range(MAIN_REPEATS[workload])]
    setup_children = [spawn("setup", seed, seconds, deadline) for _ in range(SETUP_CHILDREN[workload])]
    setups = [_setup_time(r, raw) for r, raw, _ in mains + setup_children]
    walls = [(wall_raw - sampled_before(r["speed_samples"], float("inf"))) * scale(r["speed_samples"])
             for r, _, wall_raw in mains]
    run_ops = [op for r, _, _ in mains for op in r["ops"] if op["phase"] == "run"]
    busy_raw = busy = 0.0
    for r, _, _ in mains:
        own = sum(op["seconds"] for op in r["ops"] if op["phase"] == "run")
        busy_raw += own
        busy += own * scale(r["speed_samples"], start=r["setup_done"])
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r, _, _ in mains),
        "queries_per_s": len(run_ops) / busy,
    }
    result, setup_raw, wall_raw = mains[0]
    samples = result["speed_samples"]
    lines = [
        f"raw (unscaled) main child: wall {wall_raw:.3f} s, set-up {setup_raw:.3f} s, "
        f"speed factor {scale(samples):.4f} from {len(samples)} samples",
        f"wall_s is the median of {len(walls)} cold main children: " + ", ".join(f"{w:.3f}" for w in walls),
        f"setup_s is the median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
        f"queries answered after set-up: {len(run_ops)} in {busy:.3f} s busy ({busy_raw:.3f} s raw)",
        "per-kind latencies below are raw (unscaled)",
    ]
    for kind, qs in QUERY_KINDS:
        ms = [op["seconds"] * 1000 for op in run_ops if op["kind"] == kind]
        if not ms:
            continue
        for q in qs:
            name = f"{kind}_p{q}_ms"
            if len(ms) * (100 - q) // 100 >= 10:
                lines.append(f"{name:<22}{percentile(ms, q):>14.3f} ms   (n={len(ms)}, "
                             f"{len(ms) * (100 - q) // 100} samples above)")
            else:
                lines.append(f"{name:<22}{'n/a':>14}      (n={len(ms)}: fewer than ten samples above)")
    return [r for r, _, _ in mains + setup_children], metrics, lines


def measure_traced(workload, seed, seconds, deadline):
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    result, _, wall = spawn(workload, seed, seconds, deadline, trace_file)
    doc = json.loads(trace_file.read_text())
    spans = doc["spans"]
    own = self_times(spans)
    ops = result["ops"]

    def total(name, tag=None):
        return sum(own[s["id"]] for s in spans if s["name"] == name and (tag is None or s["tag"] == tag))

    metrics = {}
    for metric, name in SELF_TIME.items():
        metrics[metric] = total(name)
        if metric in PER_GROUP:
            for group in oracle.GROUPS:
                metrics[f"{metric}.{group}"] = total(name, group)
    metrics["cli.main_s"] = sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.main")
    metrics["periodic_graphs.lift_calls"] = sum(1 for op in ops if op["kind"] == "lift")
    metrics["periodic_graphs.singular_segments"] = sum(
        op["output"] for op in ops if op["kind"] == "singular_graph" and op["ok"])
    metrics["periodic_graphs.marked_orbits"] = sum(
        op["output"] for op in ops if op["kind"] == "marked_edges" and op["ok"])
    kept = sum(len(op["output"]) for op in ops if op["kind"] == "survey_cold" and op["ok"])
    metrics["sublattices.lattices_kept"] = kept
    metrics["sublattices.ms_per_lattice_kept"] = metrics["sublattices.survey_cold_s"] * 1000 / max(kept, 1)
    metrics["classify.rows"] = sum(len(op["output"]) for op in ops if op["kind"] == "classify" and op["ok"])
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = 0
    for op in ops:
        if not op["ok"]:
            metrics[f"{op['layer']}.errors"] += 1
    metrics["trace.overhead_s"] = doc["overhead_s"]
    lines = [f"traced child: wall {wall:.3f} s, {len(spans)} spans, run id {doc['run_id']}",
             "lattices has no public boundary of its own: its cost is inside its callers' self time"]
    lines += untraced_medians(workload)
    return [result], metrics, lines


def untraced_medians(workload):
    """Medians of the untraced results this checkout has recorded for the workload."""
    found = []
    for path in sorted(OUT.glob(f"result-{workload}-seed*-trace0.json")):
        try:
            found.append(json.loads(path.read_text())["metrics"])
        except (OSError, ValueError, KeyError):
            continue
    if not found:
        return ["untraced medians: no untraced run of this workload recorded in .perfbench/ yet"]
    return [f"untraced median over {len(found)} runs: {name} "
            f"{statistics.median(m[name]['value'] for m in found):.4f} {unit}"
            for name, unit in END_TO_END if all(name in m for m in found)]


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_DEADLINE_S
    measure = measure_traced if trace else measure_untraced
    try:
        results, metrics, lines = measure(workload, seed, seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    attempted, failed, errors = check_all(results, seed)
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    env = environment(seed, workload, results[0]["env"])
    units = dict(PER_LAYER if trace else END_TO_END)
    out_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    summary = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": out_metrics}

    print(f"== perfbench workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in out_metrics.items():
        print(f"{name:<44}{m['value']:>14.4f} {m['unit']}")
    for line in lines:
        print(line)
    print(f"error_rate {failed / attempted:.4f} ({failed} of {attempted} operations failed the oracle or raised)")
    OUT.mkdir(exist_ok=True)
    record = {"env": env, **summary}
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return summary


def main(argv=None):
    p = argparse.ArgumentParser(description="torsym benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "torsym" / "__init__.py").is_file():
        print(f"error: no torsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        summary = run_workload(workload, args.seed, args.seconds, args.trace)
        ok = ok and summary["correct"] and summary["failed"] == 0
        print(json.dumps(summary), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
