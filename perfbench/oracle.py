"""Closed-form predictions for every output the benchmark checks.

Nothing here imports torsym.  The tables restate the paper's classification
(family steps and index coefficients, accepted families and their divisibility
constraints) so that the benchmark checks the program by an independent route.
Each ``check_*`` function returns None when an output matches its prediction
and a one-line description of the first difference otherwise.
"""

import hashlib
import json

GROUPS = ("P432", "F4_132", "I4_132", "I432", "P4_232", "P622")

POINT_ORDER = {"P432": 24, "F4_132": 24, "I4_132": 24, "I432": 24, "P4_232": 24, "P622": 12}

T0_COVOLUME = {"P432": "1", "F4_132": "2", "I4_132": "4", "I432": "1/2", "P4_232": "1", "P622": "1"}

# Per group, in report order: (family tag, step, coefficient).  The instance
# with raw parameter u = step·n has index coefficient·n³ in T0, or
# coefficient·n²·m for the hexagonal families, and no other family instance is
# an invariant sublattice.
FAMILIES = {
    "P432": (("CUBIC_PRIMITIVE", 1, 1), ("CUBIC_FACE", 1, 2), ("CUBIC_BODY", 2, 4)),
    "F4_132": (("CUBIC_FACE", 1, 1), ("CUBIC_PRIMITIVE", 2, 4), ("CUBIC_BODY", 4, 16)),
    "I4_132": (("CUBIC_BODY", 2, 1), ("CUBIC_PRIMITIVE", 2, 2), ("CUBIC_FACE", 2, 4)),
    "I432": (("CUBIC_BODY", 1, 1), ("CUBIC_PRIMITIVE", 1, 2), ("CUBIC_FACE", 1, 4)),
    "P4_232": (("CUBIC_PRIMITIVE", 1, 1), ("CUBIC_FACE", 1, 2), ("CUBIC_BODY", 2, 4)),
    "P622": (("HEX_PRIMITIVE", 1, 1), ("HEX_ROT", 1, 3)),
}

# The nine (group, marked edge) cases in census column order.
CASES = (
    ("P432", "alpha"),
    ("F4_132", "alpha"),
    ("I4_132", "alpha"),
    ("I432", "beta"),
    ("P4_232", "beta"),
    ("P4_232", "gamma"),
    ("I432", "gamma"),
    ("I4_132", "beta"),
    ("P622", "beta"),
)

# Accepted families per case with the constraint on the reduced parameters;
# a family missing here is rejected for every parameter.
ACCEPTED = {
    ("P432", "alpha"): {"CUBIC_PRIMITIVE": "none", "CUBIC_FACE": "none", "CUBIC_BODY": "none"},
    ("F4_132", "alpha"): {"CUBIC_FACE": "none", "CUBIC_PRIMITIVE": "none", "CUBIC_BODY": "none"},
    ("I4_132", "alpha"): {"CUBIC_BODY": "none", "CUBIC_PRIMITIVE": "none", "CUBIC_FACE": "none"},
    ("I432", "beta"): {"CUBIC_BODY": "2∤n"},
    ("P4_232", "beta"): {"CUBIC_PRIMITIVE": "2∤n", "CUBIC_BODY": "2∤n"},
    ("P4_232", "gamma"): {"CUBIC_PRIMITIVE": "2∤n", "CUBIC_FACE": "2∤n"},
    ("I432", "gamma"): {"CUBIC_BODY": "2∤n"},
    ("I4_132", "beta"): {"CUBIC_BODY": "3∤n", "CUBIC_PRIMITIVE": "3∤n", "CUBIC_FACE": "3∤n"},
    ("P622", "beta"): {"HEX_PRIMITIVE": "m=1", "HEX_ROT": "m=1"},
}

MARKED_ORBITS = {"P432": 1, "F4_132": 1, "I4_132": 2, "I432": 2, "P4_232": 2, "P622": 1}

# Singular segments modulo T0 per group, recorded from the program.
SINGULAR_SEGMENTS = {"P432": 56, "F4_132": 60, "I4_132": 68, "I432": 62, "P4_232": 100, "P622": 48}

# `torsym table --max-genus 101 --format json`, recorded for bit-identity.
CENSUS_ARGV = ("table", "--max-genus", "101", "--format", "json")
CENSUS_SHA256 = "e69f0c2bfb698e1bc1bac02414089e03ff890c2e3809728f3d7be7fc4385a618"

# The genus-65 census entry written out by hand: genus - 1 = 64 = 8·2³ = 8².
# Actions are (column, group, edge, family tag, reduced n, m).
GENUS_65 = (
    65,
    768,
    3,
    2,
    (
        (1, "P432", "alpha", "CUBIC_BODY", 2, None),
        (2, "F4_132", "alpha", "CUBIC_PRIMITIVE", 2, None),
        (3, "I4_132", "alpha", "CUBIC_FACE", 2, None),
        (8, "I4_132", "beta", "CUBIC_FACE", 2, None),
        (9, "P622", "beta", "HEX_PRIMITIVE", 8, 1),
    ),
)


def is_hex(tag):
    return tag.startswith("HEX")


def holds(constraint, n, m):
    if constraint == "none":
        return True
    if constraint == "2∤n":
        return n % 2 == 1
    if constraint == "3∤n":
        return n % 3 != 0
    if constraint == "m=1":
        return m == 1
    raise ValueError(f"unknown constraint {constraint!r}")


def family_index(group, tag, n, m=None):
    """Index in T0 of the family instance with reduced parameter n (and m)."""
    for t, _, coeff in FAMILIES[group]:
        if t == tag:
            return coeff * n * n * m if is_hex(tag) else coeff * n**3
    raise KeyError(f"{group} has no family {tag}")


def family_step(group, tag):
    return next(step for t, step, _ in FAMILIES[group] if t == tag)


def family_instances(group, max_index):
    """Every (tag, reduced n, m, index) with index at most max_index."""
    out = []
    for tag, _, _ in FAMILIES[group]:
        n = 1
        while family_index(group, tag, n, 1) <= max_index:
            if is_hex(tag):
                m = 1
                while family_index(group, tag, n, m) <= max_index:
                    out.append((tag, n, m, family_index(group, tag, n, m)))
                    m += 1
            else:
                out.append((tag, n, None, family_index(group, tag, n)))
            n += 1
    return out


# ------------------------------------------------------------------
# predictions
# ------------------------------------------------------------------


def predicted_survey(group, max_index):
    """Sorted (index, tag, raw parameter, m, total index) of every invariant sublattice."""
    order = POINT_ORDER[group]
    return sorted(
        (d, tag, family_step(group, tag) * n, m, order * d)
        for tag, n, m, d in family_instances(group, max_index)
    )


def predicted_lift(group, edge, tag, u, m):
    """Lift verdict of a family instance with raw parameter u: accepted and constraint holds."""
    step = family_step(group, tag)
    if u % step:
        raise ValueError(f"{group} {tag}: raw parameter {u} is not a multiple of {step}")
    constraint = ACCEPTED[(group, edge)].get(tag)
    return constraint is not None and holds(constraint, u // step, m)


def predicted_rows(group, edge, max_index):
    """classify_case rows as [tag, raw n, n, m, constraint, index, order, genus, knotted]."""
    accepted = ACCEPTED[(group, edge)]
    order = POINT_ORDER[group]
    tags = [tag for tag, _, _ in FAMILIES[group]]
    rows = []
    for tag, n, m, d in family_instances(group, max_index):
        constraint = accepted.get(tag)
        if constraint is None or not holds(constraint, n, m):
            continue
        rows.append(
            [tag, family_step(group, tag) * n, n, m, constraint, d, order * d,
             order * d // 12 + 1, edge != "alpha"]
        )
    rows.sort(key=lambda r: (r[5], tags.index(r[0]), r[2]))
    return rows


def predicted_census(max_genus):
    """Census entries as [genus, order, unknotted, knotted, actions]; an action is [column, group, edge, *row]."""
    by_genus = {}
    for column, (group, edge) in enumerate(CASES, start=1):
        bound = 12 * (max_genus - 1) // POINT_ORDER[group]
        for row in predicted_rows(group, edge, bound):
            if row[7] <= max_genus:
                by_genus.setdefault(row[7], []).append([column, group, edge, *row])
    out = []
    for genus in sorted(by_genus):
        actions = by_genus[genus]
        knotted = sum(1 for a in actions if a[-1])
        out.append([genus, 12 * (genus - 1), len(actions) - knotted, knotted, actions])
    return out


# ------------------------------------------------------------------
# checks, one per output kind
# ------------------------------------------------------------------


def _diff(what, got, want):
    if got == want:
        return None
    if isinstance(got, list) and isinstance(want, list):
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return f"{what}: item {i} is {g!r}, predicted {w!r}"
        return f"{what}: {len(got)} items, predicted {len(want)}"
    return f"{what}: got {got!r}, predicted {want!r}"


def check_make_group(inp, out):
    name = inp["group"]
    return _diff(f"make_group {name}", out, [name, POINT_ORDER[name], T0_COVOLUME[name]])


def check_singular_graph(inp, out):
    return _diff(f"singular_graph {inp['group']}", out, SINGULAR_SEGMENTS[inp["group"]])


def check_marked_edges(inp, out):
    return _diff(f"marked_edges {inp['group']}", out, MARKED_ORBITS[inp["group"]])


def check_edge_orbit_graph(inp, out):
    vertices, edges = out
    if vertices < 1 or edges < vertices:
        return f"edge_orbit_graph {inp['group']}: {vertices} vertices and {edges} edges carry no cycle"
    return None


def check_labeled_marked_edges(inp, out):
    want = sorted(edge for group, edge in CASES if group == inp["group"])
    return _diff(f"labeled_marked_edges {inp['group']}", out, want)


def check_survey(inp, out, reference):
    """out: [index, tag, raw n, m, total, lattice json]; reference maps (tag, raw n, m) to lattice json."""
    group = inp["group"]
    what = f"survey {group} to {inp['max_index']}"
    got = [row[:5] for row in out]
    if [r[0] for r in got] != sorted(r[0] for r in got):
        return f"{what}: indices are not ascending"
    err = _diff(what, sorted(got), [list(r) for r in predicted_survey(group, inp["max_index"])])
    if err:
        return err
    for d, tag, u, m, _, lattice in out:
        if reference.get(json.dumps([group, tag, u, m])) != lattice:
            return f"{what}: {tag} u={u} m={m} at index {d} is not the family lattice"
    return None


def check_lift(inp, out):
    want = predicted_lift(inp["group"], inp["edge"], inp["tag"], inp["u"], inp["m"])
    return _diff(f"{inp['route']} {inp['group']} {inp['edge']} {inp['tag']} u={inp['u']} m={inp['m']}", out, want)


def check_classify(inp, out):
    want = predicted_rows(inp["group"], inp["edge"], inp["max_index"])
    return _diff(f"classify_case {inp['group']} {inp['edge']} {inp['max_index']}", out, want)


def _check_genus_65(entries):
    for genus, order, unknotted, knotted, actions in entries:
        if genus == 65:
            got = (genus, order, unknotted, knotted,
                   tuple((a[0], a[1], a[2], a[3], a[5], a[6]) for a in actions))
            return _diff("census genus 65", got, GENUS_65)
    return "census has no genus-65 entry"


def check_table(inp, out):
    err = _diff(f"theorem1_table {inp['max_genus']}", out, predicted_census(inp["max_genus"]))
    if err is None and inp["max_genus"] >= 65:
        err = _check_genus_65(out)
    return err


def census_entries(doc):
    """Census JSON (the CLI's table payload) in the entry layout of predicted_census."""
    out = []
    for g in doc["genera"]:
        actions = [
            [a["column"], a["group"], a["edge"], a["family"]["tag"], a["family"]["n"],
             a["n"], a["m"], a["constraint"], a["lattice_index"], a["group_order"],
             a["genus"], a["knotted"]]
            for a in g["actions"]
        ]
        out.append([g["genus"], g["group_order"], g["unknotted"], g["knotted"], actions])
    return out


def check_cli(inp, out):
    code, text = out
    if code != 0:
        return f"cli {' '.join(inp['argv'])}: exit code {code}"
    if hashlib.sha256(text.encode()).hexdigest() != CENSUS_SHA256:
        return f"cli {' '.join(inp['argv'])}: output differs from the recorded census (SHA-256)"
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"cli {' '.join(inp['argv'])}: output is not JSON ({exc})"
    if doc.get("schema_version") != 1:
        return "cli: schema_version is not 1"
    return check_table({"max_genus": int(inp["argv"][2])}, census_entries(doc))


CHECKS = {
    "make_group": check_make_group,
    "singular_graph": check_singular_graph,
    "marked_edges": check_marked_edges,
    "edge_orbit_graph": check_edge_orbit_graph,
    "labeled_marked_edges": check_labeled_marked_edges,
    "lift": check_lift,
    "classify": check_classify,
    "table": check_table,
    "cli": check_cli,
}


def check_op(op, reference):
    """Check one operation record from a child; None when it matches."""
    if not op["ok"]:
        return f"{op['kind']} {op['input']}: raised {op['output']}"
    if op["kind"] in ("survey_cold", "survey_warm"):
        return check_survey(op["input"], op["output"], reference)
    return CHECKS[op["kind"]](op["input"], op["output"])
