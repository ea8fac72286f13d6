"""Acceptance gate: ten timed end-to-end checks covering the whole pipeline.

Each test prints one pass line with its measured runtime and asserts both the
mathematical outcome and the runtime budget.  The tests are ordered so that
later checks may reuse caches built by earlier ones, exactly as in a full run.
"""

import random
import time
from fractions import Fraction

import pytest

from torsym.classify import CASES, classify_case, labeled_marked_edges, theorem1_table
from torsym.lattices import covolume, hnf
from torsym.periodic_graphs import (
    cycle_image_lattice,
    edge_orbit_graph,
    lift_connected,
    lift_connected_bruteforce,
    lift_genus,
    marked_edges,
    suppress_valence_two,
)
from torsym.spacegroups import (
    CUBIC_FRAME,
    GROUP_NAMES,
    HEX_FRAME,
    Isometry,
    ROT_OMEGA,
    ROT_XY,
    ROT_XYZ,
    ROT_Y,
    ROT_Z,
    make_group,
)
from torsym.sublattices import instantiate, normal_translation_subgroups

from oracles import conjugate_translation, literal_invariant_sublattices

_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _report(label: str, elapsed: float, budget: float) -> None:
    print(f"acceptance {label}: PASS ({elapsed:.2f}s < {budget:.0f}s)")


def _with_budget(label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{label} took {elapsed:.2f}s, budget {budget:.0f}s"
    _report(label, elapsed, budget)


def _sorted_lattices(lattices):
    return sorted(lattices, key=lambda L: (-L.den, L.basis))


# ============================================================
# 1. the six group presentations
# ============================================================


def test_acceptance_01_group_presentations():
    started = time.perf_counter()
    expected = {
        "P432": (24, hnf([(1, 0, 0), (0, 1, 0), (0, 0, 1)])),
        "F4_132": (24, hnf([(2, 0, 0), (1, 1, 0), (1, 0, 1)])),
        "I4_132": (24, hnf([(2, 0, 0), (0, 2, 0), (1, 1, 1)])),
        "I432": (
            24,
            hnf([(1, 0, 0), (0, 1, 0), (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))]),
        ),
        "P4_232": (24, hnf([(1, 0, 0), (0, 1, 0), (0, 0, 1)])),
        "P622": (12, hnf([(1, 0, 0), (0, 1, 0), (0, 0, 1)])),
    }
    assert tuple(expected) == tuple(GROUP_NAMES)
    for name, (order, lattice) in expected.items():
        G = make_group(name)
        assert len(G.cosets) == order, name
        assert G.point_order == order, name
        assert G.T0 == lattice, name
    _with_budget("01 group presentations", started, 1.0)


# ============================================================
# 2. conjugation closed forms at random rational translations
# ============================================================


class _Q3:
    """Exact element p + q·√3, enough arithmetic for the planar cross-check."""

    __slots__ = ("p", "q")

    def __init__(self, p, q=0):
        self.p = Fraction(p)
        self.q = Fraction(q)

    def __add__(self, other):
        return _Q3(self.p + other.p, self.q + other.q)

    def __mul__(self, other):
        return _Q3(self.p * other.p + 3 * self.q * other.q, self.p * other.q + self.q * other.p)

    def __eq__(self, other):
        return self.p == other.p and self.q == other.q


def _hex_to_cartesian(u, v, w):
    return (_Q3(-Fraction(u) / 2 + Fraction(v)), _Q3(0, Fraction(u) / 2), _Q3(Fraction(w)))


def test_acceptance_02_conjugation_formulas():
    started = time.perf_counter()
    rng = random.Random(202)
    r_y = Isometry(CUBIC_FRAME, ROT_Y, (0, 0, 0))
    r_z = Isometry(CUBIC_FRAME, ROT_Z, (0, 0, 0))
    r_xy = Isometry(CUBIC_FRAME, ROT_XY, (0, 0, 0))
    r_xyz = Isometry(CUBIC_FRAME, ROT_XYZ, (0, 0, 0))
    r_om = Isometry(HEX_FRAME, ROT_OMEGA, (0, 0, 0))
    half = _Q3(Fraction(-1, 2))
    root3_half = _Q3(0, Fraction(1, 2))
    neg_root3_half = _Q3(0, Fraction(-1, 2))
    for _ in range(100):
        a, b, c = (Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6))) for _ in range(3))
        assert conjugate_translation(r_y, (a, b, c)) == (-a, b, -c)
        assert conjugate_translation(r_z, (a, b, c)) == (-a, -b, c)
        assert conjugate_translation(r_xy, (a, b, c)) == (b, a, -c)
        assert conjugate_translation(r_xyz, (a, b, c)) == (b, c, a)
        # the planar 120° formula in hex coordinates...
        assert conjugate_translation(r_om, (a, b, c)) == (-b, a - b, c)
        # ...and its cartesian form (x, y) -> (-x/2 + (√3/2)y, -(√3/2)x - y/2)
        x, y, z = _hex_to_cartesian(a, b, c)
        gx, gy, gz = _hex_to_cartesian(*conjugate_translation(r_om, (a, b, c)))
        assert gx == half * x + root3_half * y
        assert gy == neg_root3_half * x + half * y
        assert gz == z
    _with_budget("02 conjugation formulas", started, 1.0)


# ============================================================
# 3. invariant sublattices against the literal brute force
# ============================================================


def _generator_rotations(name: str):
    return tuple(g.rot for g in make_group(name).generators if g.rot != _IDENTITY)


@pytest.mark.numpy
def test_acceptance_03_invariant_sublattice_bruteforce():
    started = time.perf_counter()
    z3 = hnf([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    cubic_rots = _generator_rotations("P432")
    found = 0
    for d in range(1, 217):
        literal = literal_invariant_sublattices(z3, cubic_rots, d)
        expected = []
        n = 1
        while n**3 <= d:
            if n**3 == d:
                expected.append(instantiate("CUBIC_PRIMITIVE", n))
            if 2 * n**3 == d:
                expected.append(instantiate("CUBIC_FACE", n))
            if 4 * n**3 == d:
                expected.append(instantiate("CUBIC_BODY", 2 * n))
            n += 1
        assert _sorted_lattices(literal) == _sorted_lattices(expected), f"cubic index {d}"
        found += len(literal)
    assert found == 13

    hex_t0 = make_group("P622").T0
    hex_rots = _generator_rotations("P622")
    found = 0
    for d in range(1, 145):
        literal = literal_invariant_sublattices(hex_t0, hex_rots, d)
        expected = []
        n = 1
        while n * n <= d:
            if d % (n * n) == 0:
                expected.append(instantiate("HEX_PRIMITIVE", n, d // (n * n)))
            if d % 3 == 0 and (d // 3) % (n * n) == 0:
                expected.append(instantiate("HEX_ROT", n, d // 3 // (n * n)))
            n += 1
        assert _sorted_lattices(literal) == _sorted_lattices(expected), f"hex index {d}"
        found += len(literal)
    assert found == 292
    _with_budget("03 invariant sublattice brute force", started, 60.0)


# ============================================================
# 4. the full family survey, bit-exact to lattice index 512
# ============================================================

# per group: (family tag, raw-parameter step, coefficient of the total index)
PREDICTED_SURVEY = {
    "P432": (("CUBIC_PRIMITIVE", 1, 24), ("CUBIC_FACE", 1, 48), ("CUBIC_BODY", 2, 96)),
    "F4_132": (("CUBIC_FACE", 1, 24), ("CUBIC_PRIMITIVE", 2, 96), ("CUBIC_BODY", 4, 384)),
    "I4_132": (("CUBIC_BODY", 2, 24), ("CUBIC_PRIMITIVE", 2, 48), ("CUBIC_FACE", 2, 96)),
    "I432": (("CUBIC_BODY", 1, 24), ("CUBIC_PRIMITIVE", 1, 48), ("CUBIC_FACE", 1, 96)),
    "P4_232": (("CUBIC_PRIMITIVE", 1, 24), ("CUBIC_FACE", 1, 48), ("CUBIC_BODY", 2, 96)),
    "P622": (("HEX_PRIMITIVE", 1, 12), ("HEX_ROT", 1, 36)),
}


def test_acceptance_04_family_survey_bit_exact():
    started = time.perf_counter()
    for name in GROUP_NAMES:
        G = make_group(name)
        actual = [
            (L, fam.tag, fam.n, fam.m, pi1)
            for L, fam, pi1 in normal_translation_subgroups(G, 512)
        ]
        assert len(set(actual)) == len(actual), name
        predicted = set()
        for tag, step, coeff in PREDICTED_SURVEY[name]:
            if tag.startswith("HEX"):
                n = 1
                while coeff * n * n <= 512 * G.point_order:
                    m = 1
                    while coeff * n * n * m <= 512 * G.point_order:
                        predicted.add((instantiate(tag, n, m), tag, n, m, coeff * n * n * m))
                        m += 1
                    n += 1
            else:
                k = 1
                while coeff * k**3 <= 512 * G.point_order:
                    predicted.add((instantiate(tag, step * k), tag, step * k, None, coeff * k**3))
                    k += 1
        assert set(actual) == predicted, name
    _with_budget("04 family survey", started, 300.0)


# ============================================================
# 5. the nine marked edge orbits
# ============================================================


def test_acceptance_05_marked_edge_counts():
    started = time.perf_counter()
    counts = [len(marked_edges(make_group(name))) for name in GROUP_NAMES]
    assert counts == [1, 1, 2, 2, 2, 1]
    assert sum(counts) == 9
    _with_budget("05 marked edge counts", started, 30.0)


# ============================================================
# 6. orbit graph connectivity and cycle images
# ============================================================

EXPECTED_IMAGES = {
    "P432": [instantiate("CUBIC_PRIMITIVE", 1)],
    "F4_132": [instantiate("CUBIC_FACE", 1)],
    "I4_132": [instantiate("CUBIC_BODY", 2), instantiate("CUBIC_BODY", 6)],
    "I432": [instantiate("CUBIC_PRIMITIVE", 1), instantiate("CUBIC_BODY", 2)],
    "P4_232": [instantiate("CUBIC_FACE", 1), instantiate("CUBIC_BODY", 2)],
    "P622": [hnf([(1, 0, 0), (0, 1, 0)])],
}


def test_acceptance_06_orbit_graph_connectivity_and_images():
    started = time.perf_counter()
    deep_raw = None
    for name in GROUP_NAMES:
        G = make_group(name)
        images = []
        for e in marked_edges(G):
            raw = edge_orbit_graph(G, e, suppress=False)
            assert lift_connected_bruteforce(raw, G.T0), (name, e.orbit_id)
            img = cycle_image_lattice(raw)
            images.append(img)
            if name == "I4_132" and img.rank == 3 and covolume(img) == 108:
                deep_raw = raw
        assert _sorted_lattices(images) == _sorted_lattices(EXPECTED_IMAGES[name]), name

    # the deep-image orbit graph is a subdivided complete graph on 4 vertices
    assert deep_raw is not None
    k4 = suppress_valence_two(deep_raw)
    assert len(k4.vertices) == 4
    assert len(k4.edges) == 6
    assert {frozenset((i, j)) for i, j, _ in k4.edges} == {
        frozenset(p) for p in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    }
    assert len(k4.edges) - len(k4.vertices) + 1 == 3
    _with_budget("06 orbit graph connectivity and images", started, 30.0)


# ============================================================
# 7. lift criterion against the brute-force search over coset copies
# ============================================================


def test_acceptance_07_lift_criterion_vs_bruteforce():
    started = time.perf_counter()
    pairs = 0
    for name, label in CASES:
        G = make_group(name)
        graph = edge_orbit_graph(G, labeled_marked_edges(name)[label])
        for L, _, _ in normal_translation_subgroups(G, 64):
            assert lift_connected(graph, L) == lift_connected_bruteforce(graph, L), (
                name,
                label,
                L,
            )
            pairs += 1
    assert pairs == 195
    _with_budget("07 lift criterion vs brute force", started, 120.0)


# ============================================================
# 8. the nine classification cases to lattice index 512
# ============================================================

EXPECTED_SURVIVORS = {
    ("P432", "alpha"): [
        ("CUBIC_PRIMITIVE", "none"),
        ("CUBIC_FACE", "none"),
        ("CUBIC_BODY", "none"),
    ],
    ("F4_132", "alpha"): [
        ("CUBIC_FACE", "none"),
        ("CUBIC_PRIMITIVE", "none"),
        ("CUBIC_BODY", "none"),
    ],
    ("I4_132", "alpha"): [
        ("CUBIC_BODY", "none"),
        ("CUBIC_PRIMITIVE", "none"),
        ("CUBIC_FACE", "none"),
    ],
    ("I432", "beta"): [("CUBIC_BODY", "2∤n")],
    ("P4_232", "beta"): [("CUBIC_PRIMITIVE", "2∤n"), ("CUBIC_BODY", "2∤n")],
    ("P4_232", "gamma"): [("CUBIC_PRIMITIVE", "2∤n"), ("CUBIC_FACE", "2∤n")],
    ("I432", "gamma"): [("CUBIC_BODY", "2∤n")],
    ("I4_132", "beta"): [
        ("CUBIC_BODY", "3∤n"),
        ("CUBIC_PRIMITIVE", "3∤n"),
        ("CUBIC_FACE", "3∤n"),
    ],
    ("P622", "beta"): [("HEX_PRIMITIVE", "m=1"), ("HEX_ROT", "m=1")],
}

# genus - 1 = coeff * n^exp for the rows of each accepted family
EXPECTED_ROW_FORMS = {
    ("P432", "alpha"): {"CUBIC_PRIMITIVE": (2, 3), "CUBIC_FACE": (4, 3), "CUBIC_BODY": (8, 3)},
    ("F4_132", "alpha"): {"CUBIC_FACE": (2, 3), "CUBIC_PRIMITIVE": (8, 3), "CUBIC_BODY": (32, 3)},
    ("I4_132", "alpha"): {"CUBIC_BODY": (2, 3), "CUBIC_PRIMITIVE": (4, 3), "CUBIC_FACE": (8, 3)},
    ("I432", "beta"): {"CUBIC_BODY": (2, 3)},
    ("P4_232", "beta"): {"CUBIC_PRIMITIVE": (2, 3), "CUBIC_BODY": (8, 3)},
    ("P4_232", "gamma"): {"CUBIC_PRIMITIVE": (2, 3), "CUBIC_FACE": (4, 3)},
    ("I432", "gamma"): {"CUBIC_BODY": (2, 3)},
    ("I4_132", "beta"): {"CUBIC_BODY": (2, 3), "CUBIC_PRIMITIVE": (4, 3), "CUBIC_FACE": (8, 3)},
    ("P622", "beta"): {"HEX_PRIMITIVE": (1, 2), "HEX_ROT": (3, 2)},
}

_CONSTRAINT_PREDICATES = {
    "none": lambda n: True,
    "2∤n": lambda n: n % 2 == 1,
    "3∤n": lambda n: n % 3 != 0,
    "m=1": lambda n: True,
}


def test_acceptance_08_classification_rows():
    started = time.perf_counter()
    for case in CASES:
        name, label = case
        point_order = make_group(name).point_order
        rows = classify_case(name, label, 512)
        seen = []
        for row in rows:
            pair = (row.family.tag, row.constraint)
            if pair not in seen:
                seen.append(pair)
        assert seen == EXPECTED_SURVIVORS[case], case

        for tag, constraint in EXPECTED_SURVIVORS[case]:
            coeff, exp = EXPECTED_ROW_FORMS[case][tag]
            keep = _CONSTRAINT_PREDICATES[constraint]
            expected_rows = []
            n = 1
            while coeff * n**exp * 12 // point_order <= 512:
                if keep(n):
                    expected_rows.append((n, coeff * n**exp * 12 // point_order))
                n += 1
            emitted = [(r.n, r.lattice_index) for r in rows if r.family.tag == tag]
            emitted.sort()
            assert emitted == expected_rows, (case, tag)

        for row in rows:
            assert row.group_order == 12 * (row.genus - 1)
            coeff, exp = EXPECTED_ROW_FORMS[case][row.family.tag]
            assert row.genus - 1 == coeff * row.n**exp
            if name == "P622":
                assert row.m == 1
    _with_budget("08 classification rows", started, 300.0)


# ============================================================
# 9. the genus census to genus 101
# ============================================================


def test_acceptance_09_genus_census():
    started = time.perf_counter()
    entries = theorem1_table(101)
    forms = ((2, 3), (4, 3), (8, 3), (1, 2), (3, 2))
    representable = set()
    for coeff, exp in forms:
        n = 1
        while coeff * n**exp <= 100:
            representable.add(coeff * n**exp)
            n += 1
    assert {e.genus - 1 for e in entries} == representable

    for entry in entries:
        columns = [column for column, _ in entry.actions]
        assert columns == sorted(columns)
        for column, row in entry.actions:
            assert (row.group, row.edge_label) == CASES[column - 1]
            assert row.genus == entry.genus
        assert entry.unknotted + entry.knotted == len(entry.actions)

    entry65 = next(e for e in entries if e.genus == 65)
    assert len(entry65.actions) == 5
    assert entry65.unknotted == 3
    assert entry65.knotted == 2
    assert entry65.group_order == 768
    assert [column for column, _ in entry65.actions] == [1, 2, 3, 8, 9]
    _with_budget("09 genus census", started, 10.0)


# ============================================================
# 10. the genus identity on the covering lift
# ============================================================


def test_acceptance_10_genus_identity():
    started = time.perf_counter()
    rows_checked = 0
    for name, label in CASES:
        graph = edge_orbit_graph(make_group(name), labeled_marked_edges(name)[label])
        for row in classify_case(name, label, 27):
            assert lift_genus(graph, row.lattice) - 1 == row.group_order // 12
            rows_checked += 1
    assert rows_checked == 40
    _with_budget("10 genus identity", started, 60.0)
