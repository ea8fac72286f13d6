"""Tests for classification rows, the genus census, claim checks, and the CLI."""

import copy
import json
import pickle
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torsym
from torsym import classify, cli, periodic_graphs, sublattices
from torsym.classify import (
    CASES,
    THEOREM_1,
    ClassificationRow,
    _accepts,
    _cases,
    _classify,
    _derived_exponent,
    _fills_t0,
    _word,
    classify_case,
    labeled_marked_edges,
    report_to_json,
    report_to_text,
    rows_to_csv,
    rows_to_json,
    rows_to_text,
    table_to_csv,
    table_to_json,
    theorem1_cells,
    theorem1_table,
    verify_claims,
    verify_tables,
)
from torsym.errors import Disconnected, InvariantViolation, TorsymError
from torsym.lattices import SubgroupHNF, _from_t0_hnfs, covolume, hnf, hnf_columns, hnf_solve, index, int_matvec, is_subgroup, join
from torsym.periodic_graphs import (
    PeriodicGraph,
    SingularEdge,
    cycle_image_lattice,
    edge_orbit_graph,
    lift_connected,
    lift_connected_bruteforce,
)
from torsym.spacegroups import CUBIC_FRAME, GROUP_NAMES, ROT_XYZ, Isometry, SpaceGroup, _closure, make_group
from torsym.sublattices import FAMILY_TAGS, LatticeFamily, _family_table, instantiate, normal_translation_subgroups

from oracles import constraint_holds

# ============================================================
# marked edge labels
# ============================================================


def test_edge_labels_per_group():
    expected = {
        "P432": ["alpha"],
        "F4_132": ["alpha"],
        "I4_132": ["alpha", "beta"],
        "I432": ["beta", "gamma"],
        "P4_232": ["beta", "gamma"],
        "P622": ["beta"],
    }
    for name, labels in expected.items():
        assert sorted(labeled_marked_edges(name)) == labels


def test_an_edit_to_the_labeled_edges_reaches_no_later_call():
    # each call answers with its own dict, so a caller's edit stays with the caller
    labeled_marked_edges("P432").clear()
    labeled_marked_edges("p432")["beta"] = None
    rows = classify_case("P432", "alpha", 8)
    assert rows and rows == classify_case("p_432", "alpha", 8)
    assert sorted(labeled_marked_edges("P432")) == sorted(labeled_marked_edges("p432")) == ["alpha"]
    # and every spelling of a name reads the one labelling cached under its record
    classify._cases.cache_clear()
    assert labeled_marked_edges("p432") == labeled_marked_edges("P432") == labeled_marked_edges("p_432")
    assert classify._cases.cache_info().currsize == 1


def _clear_label_caches():
    classify._cases.cache_clear()


class _Unreadable:
    """A stand-in claim that fails any comparison, hash, truth test or attribute read."""

    def _read(self, *_):
        raise AssertionError("the claimed images were read")

    __eq__ = __hash__ = __bool__ = _read

    def __getattribute__(self, name):
        raise AssertionError("the claimed images were read")


def test_labels_and_classification_never_read_the_claimed_images(monkeypatch):
    for case, claim in THEOREM_1.items():
        monkeypatch.setitem(THEOREM_1, case, claim._replace(claimed_image=_Unreadable()))
    _clear_label_caches()
    try:
        assert {name: sorted(labeled_marked_edges(name)) for name in ("I4_132", "P4_232")} == {
            "I4_132": ["alpha", "beta"],
            "P4_232": ["beta", "gamma"],
        }
        rows = classify_case("P4_232", "gamma", 64)
        assert [(r.family.tag, r.n) for r in rows] == [
            ("CUBIC_PRIMITIVE", 1),
            ("CUBIC_FACE", 1),
            ("CUBIC_PRIMITIVE", 3),
            ("CUBIC_FACE", 3),
        ]
    finally:
        _clear_label_caches()


def test_a_tie_in_the_image_index_raises_an_internal_error(monkeypatch, capsys):
    # every marked orbit given I = T0: two alpha candidates for I432
    monkeypatch.setattr(classify, "cycle_image_lattice", lambda g: g.T0)
    with pytest.raises(InvariantViolation, match="take no labels"):
        classify._cases.__wrapped__(make_group("I432"))
    _clear_label_caches()
    try:
        assert cli.main(["edges", "I432"]) == 3
        assert capsys.readouterr().err.startswith("internal error: I432: marked orbits")
    finally:
        monkeypatch.undo()
        _clear_label_caches()


def test_a_renamed_record_keeps_its_own_cases():
    # I432's record under the name P432 has I432's labels and orbits, not P432's alpha on orbit 2
    cases = _cases(make_group("I432")._replace(name="P432"))
    assert {label: c.edge.orbit_id for label, c in cases.items()} == {"beta": 1, "gamma": 4}
    assert {label: c.edge.orbit_id for label, c in _cases(make_group("P432")).items()} == {"alpha": 2}


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_multipliers_are_the_least_parameter_inside_t0(name):
    G = make_group(name)
    T0 = G.T0
    hexagonal = name == "P622"
    tags = [tag for tag in FAMILY_TAGS if tag.startswith("HEX") == hexagonal]
    least = {
        tag: next(u for u in range(1, 13) if is_subgroup(instantiate(tag, u, 1 if hexagonal else None), T0))
        for tag in tags
    }
    derived = {tag: u for tag, (u, *_) in _family_table(T0, G.frame.name).items()}
    assert derived == least
    indices = [index(instantiate(tag, u, 1 if hexagonal else None), T0) for tag, u in derived.items()]
    assert indices == sorted(set(indices))


def test_a_parameter_off_the_multiplier_is_an_internal_error(monkeypatch, capsys):
    G = make_group("P432")
    table = dict(_family_table(G.T0, G.frame.name))
    table["CUBIC_PRIMITIVE"] = (2, *table["CUBIC_PRIMITIVE"][1:])
    monkeypatch.setattr(classify, "_family_table", lambda T0, frame_name: table)
    with pytest.raises(InvariantViolation, match="not a multiple"):
        classify_case("P432", "alpha", 8)
    assert cli.main(["classify", "P432", "alpha", "--max-index", "8"]) == 3
    assert capsys.readouterr().err.startswith("internal error: P432: CUBIC_PRIMITIVE parameter 1 ")


def test_case_list_covers_every_label_once():
    # the nine columns of Theorem 1 in the paper's order
    assert CASES == (
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
    assert torsym.CASES is CASES
    for name in {g for g, _ in CASES}:
        case_labels = sorted(label for g, label in CASES if g == name)
        assert case_labels == sorted(labeled_marked_edges(name))


# ============================================================
# classification rows
# ============================================================


def test_p432_alpha_has_four_rows_up_to_index_eight():
    rows = classify_case("P432", "alpha", 8)
    assert [r.lattice_index for r in rows] == [1, 2, 4, 8]
    assert [r.lattice_label for r in rows] == ["T_1", "T_2", "T_4", "T_8"]
    assert all(r.constraint == "none" and not r.knotted for r in rows)


def test_i432_beta_accepts_only_odd_body_lattices():
    rows = classify_case("I432", "beta", 64)
    assert [(r.family.tag, r.n, r.lattice_index) for r in rows] == [
        ("CUBIC_BODY", 1, 1),
        ("CUBIC_BODY", 3, 27),
    ]
    assert all(r.constraint == "2∤n" for r in rows)
    assert rows[0].lattice_label == "T_1/2"
    assert rows[1].lattice_label == "T_27/2"


def test_p4_232_gamma_accepts_odd_primitive_and_face():
    rows = classify_case("P4_232", "gamma", 64)
    assert [(r.family.tag, r.n) for r in rows] == [
        ("CUBIC_PRIMITIVE", 1),
        ("CUBIC_FACE", 1),
        ("CUBIC_PRIMITIVE", 3),
        ("CUBIC_FACE", 3),
    ]
    assert all(r.constraint == "2∤n" for r in rows)


def test_p622_beta_forces_single_layer():
    rows = classify_case("P622", "beta", 27)
    assert all(r.m == 1 and r.constraint == "m=1" for r in rows)
    assert [(r.family.tag, r.n) for r in rows] == [
        ("HEX_PRIMITIVE", 1),
        ("HEX_ROT", 1),
        ("HEX_PRIMITIVE", 2),
        ("HEX_PRIMITIVE", 3),
        ("HEX_ROT", 2),
        ("HEX_PRIMITIVE", 4),
        ("HEX_PRIMITIVE", 5),
        ("HEX_ROT", 3),
    ]


def test_i4_132_beta_skips_multiples_of_three():
    rows = classify_case("I4_132", "beta", 512)
    ns = {(r.family.tag, r.n) for r in rows}
    assert all(n % 3 != 0 for _, n in ns)
    assert ("CUBIC_BODY", 1) in ns and ("CUBIC_BODY", 2) in ns
    assert ("CUBIC_BODY", 4) in ns and ("CUBIC_BODY", 3) not in ns


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_row_invariants(case):
    group, edge = case
    G = make_group(group)
    for row in classify_case(group, edge, 64):
        assert row.group_order == 12 * (row.genus - 1)
        assert row.group_order == G.point_order * row.lattice_index
        assert row.lattice_index == index(row.lattice, G.T0)
        assert row.knotted == THEOREM_1[case].knotted
        forms = [f for f in THEOREM_1[case].families if f.tag == row.family.tag]
        assert len(forms) == 1
        assert row.genus - 1 == forms[0].claimed_coefficient * row.n ** forms[0].claimed_exponent


def test_survivor_families_match_the_fixed_lists():
    for group, edge in CASES:
        rows = classify_case(group, edge, 64)
        found = []
        for row in rows:
            pair = (row.family.tag, row.constraint)
            if pair not in found:
                found.append(pair)
        assert found == [(f.tag, f.claimed_constraint) for f in THEOREM_1[(group, edge)].families], (group, edge)


# n = 1..7, 9, 12 brings in multiples of 2, 3 and 6 and the primes 5 and 7;
# 12³ lets every case's index-1 family reach n = 12
AGREEMENT_NS = (1, 2, 3, 4, 5, 6, 7, 9, 12)
AGREEMENT_MAX_INDEX = 12**3


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_derived_constraints_agree_with_bruteforce_lifts(case):
    group, edge = case
    G = make_group(group)
    T0 = G.T0
    cases = _cases(G)
    g = cases[edge].graph
    checked_ns = set()
    for tag, (mult, *_) in _family_table(T0, G.frame.name).items():
        e = cases[edge].exponents[tag]
        for n in AGREEMENT_NS:
            for m in (1, 2, 3) if tag.startswith("HEX") else (None,):
                L = instantiate(tag, mult * n, m)
                if index(L, T0) > AGREEMENT_MAX_INDEX:
                    continue
                assert lift_connected_bruteforce(g, L) == _accepts(e, n, m), (tag, n, m)
                checked_ns.add(n)
    assert checked_ns == set(AGREEMENT_NS)


def _single_vertex_graph(shifts):
    T0 = make_group("P432").T0
    return PeriodicGraph(
        group="P432", T0=T0, vertices=((0, 0, 0),), edges=tuple((0, 0, s) for s in shifts)
    )


# (k with T0/I = Z/k, u with L₁ = u·ℤ³, the exponent or the message of the InvariantViolation, its word)
_CYCLIC_QUOTIENTS = [
    # Z/6, Z/10 and Z/5 have a prime that no word names: both primes 2 and 3, or one outside 6
    (6, 1, r"\[T0 : I\] = 6", None),
    (10, 1, r"\[T0 : I\] = 10", None),
    (5, 1, r"\[T0 : I\] = 5", None),
    (4, 1, 4, "2∤n"),
    (8, 1, 8, "2∤n"),
    (9, 1, 9, "3∤n"),
    # 2·ℤ³ + I misses T0, so the family is rejected for every n
    (4, 2, None, None),
]


@pytest.mark.parametrize("k, u, expected, word", _CYCLIC_QUOTIENTS, ids=[f"Z{k}-L{u}" for k, u, *_ in _CYCLIC_QUOTIENTS])
def test_derived_exponent_rejects_an_index_without_a_listed_word(k, u, expected, word):
    g = _single_vertex_graph([(1, 0, 0), (0, 1, 0), (0, 0, k)])
    args = (cycle_image_lattice(g), g.T0, "CUBIC_PRIMITIVE", instantiate("CUBIC_PRIMITIVE", u))
    if isinstance(expected, str):
        with pytest.raises(InvariantViolation, match=expected):
            _derived_exponent(*args)
    else:
        e = _derived_exponent(*args)
        assert (e, _word(e)) == (expected, word)


def test_the_verdict_matches_the_constraint_words_on_every_surveyed_row():
    # the surveyed rows of each case to index 512, accepted or not, against the word route of the oracle
    for group, edge in CASES:
        G = make_group(group)
        table, cases = _family_table(G.T0, G.frame.name), _cases(G)
        for _, fam, _ in normal_translation_subgroups(G, 512):
            n, e = fam.n // table[fam.tag][0], cases[edge].exponents[fam.tag]
            words = e is not None and constraint_holds(_word(e), n, fam.m)
            assert _accepts(e, n, fam.m) == words, (group, edge, fam)


@given(st.sampled_from([0, 1, 2, 3, 4, 8, 9]), st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
@example(0, 2, 1)
@example(0, 1, 2)
@example(4, 6, 1)
@example(9, 6, 1)
def test_the_verdict_matches_its_rendered_word(e, n, m):
    # e = 0 acts on m alone, every other listed e on n alone
    assert _accepts(e, n, m) == constraint_holds(_word(e), n, m)
    assert not _accepts(None, n, m)


def test_classify_case_raises_when_a_lift_contradicts_the_constraint(monkeypatch):
    # I432 beta rejects some lattices up to index 8, so e = 1 for every family, "none", cannot hold
    cases = _cases(make_group("I432"))
    forced = {label: c._replace(exponents=dict.fromkeys(c.exponents, 1)) for label, c in cases.items()}
    monkeypatch.setattr(classify, "_cases", lambda G: forced)
    with pytest.raises(InvariantViolation, match="disagrees with the derived constraint"):
        classify_case("I432", "beta", 8)


def test_classify_case_raises_when_i432_gamma_takes_the_exponent_one(monkeypatch):
    # the accepted family of I432 gamma has e = 2; with e = 1 its n = 2 instance, which the lift rejects, would pass
    cases = _cases(make_group("I432"))
    gamma = cases["gamma"]
    assert gamma.exponents == {"CUBIC_BODY": 2, "CUBIC_PRIMITIVE": None, "CUBIC_FACE": None}
    forced = dict(cases, gamma=gamma._replace(exponents={tag: e and 1 for tag, e in gamma.exponents.items()}))
    monkeypatch.setattr(classify, "_cases", lambda G: forced)
    with pytest.raises(InvariantViolation, match="CUBIC_BODY n=2, m=None disagrees with the derived constraint 'none'"):
        classify_case("I432", "gamma", 8)


def test_the_cases_build_with_every_join_refused(monkeypatch):
    # the derived exponents decide L₁ + I = T0 by the 3×3 minors; only the lift route joins
    want = {name: {label: c.exponents for label, c in _cases(make_group(name)).items()} for name in GROUP_NAMES}

    def refuse(*_):
        raise AssertionError("the constraint route called join")

    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "torsym" and getattr(m, "join", None) is join]
    assert {m.__name__ for m in modules} >= {"torsym", "torsym.lattices", "torsym.periodic_graphs"}
    for module in modules:
        monkeypatch.setattr(module, "join", refuse)
    for name in GROUP_NAMES:
        cases = _cases.__wrapped__(make_group(name))
        assert {label: c.exponents for label, c in cases.items()} == want[name]


t0_columns = st.lists(st.tuples(*[st.integers(min_value=-3, max_value=3)] * 3), max_size=3)


@given(st.sampled_from(GROUP_NAMES), t0_columns, t0_columns, st.booleans())
@example("P432", [(2, 0, 0), (0, 2, 0), (0, 0, 2)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], False)
@example("P622", [(2, 0, 0), (0, 2, 0), (0, 0, 1)], [(1, 1, 0), (0, 1, 0)], True)
@example("P622", [(2, 0, 0), (0, 2, 0), (0, 0, 1)], [(2, 0, 0), (0, 1, 0)], True)
@settings(max_examples=300, deadline=None)
def test_the_minors_decide_whether_a_join_fills_t0(name, l_cols, i_cols, planar):
    # subgroups of T0 given by columns in T0-coordinates; for P622, a rank-2 I in the plane z = 0
    T0 = make_group(name).T0
    if planar and name == "P622":
        i_cols = [(a, b, 0) for a, b, _ in i_cols]
    L, I = (_from_t0_hnfs(T0, (hnf_columns(cols),))[0] for cols in (l_cols, i_cols))
    assert _fills_t0(L, I, T0) == (join(L, I) == T0)


def test_a_join_that_drops_a_column_breaks_the_lift_route(monkeypatch):
    # the exponents do not share the join, so a wrong join meets a verdict it cannot match
    lift_join = periodic_graphs.join
    monkeypatch.setattr(periodic_graphs, "join", lambda a, b: lift_join(a, hnf(b.vectors()[:-1])))
    with pytest.raises(InvariantViolation, match="disagrees with the derived constraint"):
        for group, edge in CASES:
            classify_case(group, edge, 64)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_each_verdict_is_both_lift_routes_on_the_case_graph(case):
    # _classify lifts by the case's own cycle image; the public lift finds I again from the graph,
    # and the coset-copy search never forms it
    group, edge = case
    G = make_group(group)
    graph = _cases(G)[edge].graph
    accepted = {row.lattice for row in _classify(G, edge, 256)}
    for L, _, _ in normal_translation_subgroups(G, 256):
        assert (L in accepted) == lift_connected(graph, L) == lift_connected_bruteforce(graph, L), L


def test_a_warm_classification_hashes_no_fraction(monkeypatch):
    # the verdicts read each case's image from the case record, so no lookup hashes a graph's Fraction vertices
    for group, edge in CASES:
        classify_case(group, edge, 64)

    def refuse(self):
        raise AssertionError("Fraction.__hash__ called")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    for group, edge in CASES:
        assert classify_case(group, edge, 64)


def _t0_times_in(k: int, T0: SubgroupHNF, I: SubgroupHNF) -> bool:
    """k·T0 ⊆ I, column by column: k·h/q₀ lies in I = H/q iff H·x = k·q·h/q₀ has an integer solution x."""
    for h in T0.basis:
        v = [k * I.den * x for x in h]
        if any(c % T0.den for c in v) or hnf_solve(I.basis, [c // T0.den for c in v]) is None:
            return False
    return True


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_each_verdict_has_the_period_of_its_exponent(case):
    # e·T0 ⊆ I, so I + (k + e)·L₁ = I + k·L₁, and a family's verdict is read off k = 1, …, e; for T0/I ≅ ℤ
    # (P622 β) it acts on m alone
    group, edge = case
    G = make_group(group)
    c = _cases(G)[edge]
    table = _family_table(G.T0, G.frame.name)
    (e,) = {x for x in c.exponents.values() if x is not None}
    if c.image.rank == 3:
        assert _t0_times_in(e, G.T0, c.image)
        assert not any(_t0_times_in(d, G.T0, c.image) for d in range(1, e) if e % d == 0)
    else:
        assert e == 0
    for tag in (tag for tag, x in c.exponents.items() if x is not None):
        u, v, _, _ = table[tag]
        for k in range(1, 2 * e + 1):
            verdict = lift_connected_bruteforce(c.graph, instantiate(tag, u * k))
            assert verdict == _accepts(e, k, None) == _accepts(e, k + e, None), (tag, k)
        if e == 0:
            for k, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
                assert lift_connected_bruteforce(c.graph, instantiate(tag, u * k, v * j)) == _accepts(0, k, j), (tag, k, j)


def test_cli_exits_three_on_an_underived_constraint(monkeypatch, capsys):
    # P432's one marked orbit given this graph: its cases are derived anew, from I of index 6
    g = _single_vertex_graph([(1, 0, 0), (0, 1, 0), (0, 0, 6)])
    monkeypatch.setattr(classify, "edge_orbit_graph", lambda G, e: g)
    monkeypatch.setattr(classify, "_cases", classify._cases.__wrapped__)
    assert cli.main(["classify", "P432", "alpha", "--max-index", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ")
    assert "[T0 : I] = 6" in err and "Traceback" not in err


ORIGIN_SHIFTS = {"eighths": (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)), "thirds": (Fraction(1, 3), 0, Fraction(1, 2))}


@pytest.mark.parametrize("c", ORIGIN_SHIFTS.values(), ids=ORIGIN_SHIFTS)
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_an_origin_shift_keeps_every_row_but_its_orbit_id(case, c):
    # conjugating by x ↦ x + c sends (R, t) to (R, t + c − R·c), the same action up to conjugation
    group, edge = case
    G = make_group(group)
    gens = tuple(
        Isometry(G.frame, g.rot, tuple(t + x - y for t, x, y in zip(g.trans, c, int_matvec(g.rot, c)))) for g in G.generators
    )
    cosets, T0, maps = _closure(gens)
    H = SpaceGroup(group, G.frame, gens, T0, len(cosets), tuple(cosets), maps)
    # H's verdicts come from H's own case graph, which sits at the shifted vertices
    assert _cases(H)[edge].graph.vertices != _cases(G)[edge].graph.vertices
    # each row derives its columns from the group's name, so it carries the named group's orbit id too
    rows = _classify(H, edge, 256)
    assert rows and rows == classify_case(group, edge, 256)


def test_classify_rejects_bad_arguments():
    with pytest.raises(ValueError):
        classify_case("P432", "beta", 8)
    with pytest.raises(ValueError):
        classify_case("P432", "delta", 8)
    with pytest.raises(ValueError):
        classify_case("P432", "alpha", 0)


@pytest.mark.parametrize("max_index", ["5", 2.5, True, 0], ids=["str", "float", "bool", "zero"])
def test_classify_checks_max_index_first(max_index):
    # refused by name before any work, not by a comparison that a str cannot make
    with pytest.raises(ValueError, match="max_index must be a positive integer"):
        classify_case("P432", "alpha", max_index)


def test_row_validation():
    # a row is its group, edge label and family; each of them, or an instance the case rejects, is refused by name
    row = classify_case("P432", "alpha", 1)[0]
    assert ClassificationRow("P432", "alpha", LatticeFamily("CUBIC_PRIMITIVE", 1)) == row
    refusals = [
        (("P433", "alpha", row.family), "unknown group 'P433'"),
        (("p432", "alpha", row.family), "unknown group 'p432'"),
        (("P432", "delta", row.family), r"P432 has no edge delta; choose from \[.alpha.\]"),
        (("P432", "beta", row.family), r"P432 has no edge beta; choose from \['alpha'\]"),
        (("P432", "alpha", ("CUBIC_PRIMITIVE", 1, None)), "family must be a LatticeFamily"),
        (("P432", "alpha", LatticeFamily("HEX_ROT", 1, 1)), "HEX_ROT parameter 1 is not a multiple of its multiplier None"),
        # I432 beta's body-centred family has the multiplier 1 and rejects even n; I4_132's has the multiplier 2
        (("I432", "beta", LatticeFamily("CUBIC_BODY", 2)), "I432 beta rejects CUBIC_BODY n=2, m=None"),
        (("I432", "beta", LatticeFamily("CUBIC_FACE", 1)), "I432 beta rejects CUBIC_FACE n=1, m=None"),
        (("I4_132", "beta", LatticeFamily("CUBIC_BODY", 3)), "CUBIC_BODY parameter 3 is not a multiple of its multiplier 2"),
        # gcd(m, 0) = m, so P622 beta takes m = 1 alone
        (("P622", "beta", LatticeFamily("HEX_ROT", 1, 2)), "P622 beta rejects HEX_ROT n=1, m=2"),
    ]
    for args, message in refusals:
        with pytest.raises(ValueError, match=message):
            ClassificationRow(*args)
    hex_row = classify_case("P622", "beta", 1)[0]
    assert (hex_row.m, hex_row.constraint) == (1, "m=1")
    for m in (-1, 2, None):
        with pytest.raises(ValueError, match=f"^m must be the derived 1, got {m}$"):
            hex_row._replace(m=m)


# per field, a value other than the derived one for P432 alpha's first row, and the repr of the derived value
ROW_DRIFT = {
    "lattice": (instantiate("CUBIC_FACE", 3), "SubgroupHNF(basis=((1, 0, 0), (0, 1, 0), (0, 0, 1)), den=1)"),
    "lattice_index": (7, "1"),
    "orbit_id": (7, "2"),
    "knotted": (True, "False"),
    "constraint": ("2∤n", "'none'"),
    "genus": (4, "3"),
    "group_order": (36, "24"),
    "n": (5, "1"),
    "m": (1, "None"),
}


@pytest.mark.parametrize("field", ROW_DRIFT)
def test_replace_refuses_a_field_that_differs_from_its_derived_value(field):
    value, derived = ROW_DRIFT[field]
    row = classify_case("P432", "alpha", 8)[0]
    for build in (lambda: row._replace(**{field: value}), lambda: ClassificationRow._make({**row._asdict(), field: value}.values())):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == f"{field} must be the derived {derived}, got {value!r}"


def test_replace_refuses_an_equal_value_of_another_type():
    # 1 == True, and 1.0 == 1: the field names its type as well as its value
    row, knotted_row = classify_case("P432", "alpha", 8)[0], classify_case("I432", "beta", 8)[0]
    equal = [(row, "knotted", 0), (knotted_row, "knotted", 1), (row, "lattice_index", 1.0), (row, "genus", Fraction(3)), (row, "family", tuple(row.family))]
    for record, field, value in equal:
        assert value == getattr(record, field)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            record._replace(**{field: value})
    assert row._replace() == row and row._replace(knotted=False, genus=3) == row
    # one value too few or too many is refused, not cut to the fields it fills
    for values in (row[:11], (*row, None)):
        with pytest.raises(ValueError):
            ClassificationRow._make(values)


def test_a_row_is_rebuilt_from_its_group_edge_and_family():
    rows = [row for case in CASES for row in classify_case(*case, 512)]
    assert len(rows) == 125
    for row in rows:
        again = ClassificationRow(row.group, row.edge_label, row.family)
        assert again == row and repr(again) == repr(row)
        assert ClassificationRow(group=row.group, edge_label=row.edge_label, family=row.family) == row
        # the family fixes the rest: a new family alone makes a row whose n, the first field it derives anew, differs
        with pytest.raises(ValueError, match="^n must be the derived"):
            row._replace(family=row.family._replace(n=row.family.n * 5))


def test_copy_and_pickle_round_trip_a_row():
    for row in (classify_case("I4_132", "beta", 512)[-1], classify_case("P622", "beta", 12)[-1]):
        for other in (copy.copy(row), copy.deepcopy(row), *(pickle.loads(pickle.dumps(row, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1))):
            assert type(other) is ClassificationRow and other == row and repr(other) == repr(row)


_Z3 = SubgroupHNF(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 1)

# (record, one bad field, the constructor's message for it, one good field, that field as the constructor stores it)
CHECKED_RECORDS = [
    (_Z3, {"den": 0}, "den must be a positive integer", {"den": 3}, 3),
    (LatticeFamily("HEX_ROT", 2, 3), {"m": None}, "require a positive parameter m", {"n": 5}, 5),
    (
        Isometry(CUBIC_FRAME, ROT_XYZ, (0, 0, 0)),
        {"rot": ((-1, 0, 0), (0, -1, 0), (0, 0, -1))},
        "determinant",
        {"trans": (1, 0, "1/2")},
        (Fraction(1), Fraction(0), Fraction(1, 2)),
    ),
    (
        PeriodicGraph("P432", _Z3, [(0, 0, 0)], [(0, 0, (0, 0, 1))]),
        {"vertices": [(1, 0, 0)]},
        "in the cell",
        {"edges": [(0, 0, (0, 0, -1)), (0, 0, (-1, 0, 0))]},
        ((0, 0, (0, 0, 1)), (0, 0, (1, 0, 0))),
    ),
    (
        SingularEdge(((0, 0, 0), (0, 0, Fraction(1, 2))), 2, (2, 2, 2, 3), 0),
        {"edge_index": 1},
        "edge index must be at least 2",
        {"link": (4, 2, 3, 2)},
        (2, 2, 3, 4),
    ),
]
# each case is named by its record's type, and by the bad field too when the type comes again
CHECKED_IDS: list[str] = []
for _record, _bad, *_ in CHECKED_RECORDS:
    _name = type(_record).__name__
    CHECKED_IDS.append(f"{_name}-{','.join(_bad)}" if _name in CHECKED_IDS else _name)


@pytest.mark.parametrize("record, bad, message, good, stored", CHECKED_RECORDS, ids=CHECKED_IDS)
def test_replace_and_make_run_every_check_of_the_constructor(record, bad, message, good, stored):
    cls, fields = type(record), record._asdict()
    with pytest.raises(ValueError, match=message):
        record._replace(**bad)
    with pytest.raises(ValueError, match=message):
        cls._make({**fields, **bad}.values())
    with pytest.raises(ValueError, match=message):
        cls(**{**fields, **bad})
    replaced = record._replace(**good)
    (field,) = good
    # repr tells a Fraction from an int and a tuple from a list
    assert repr(getattr(replaced, field)) == repr(stored)
    assert type(replaced) is cls and replaced == cls(**{**fields, **good}) == cls._make({**fields, **good}.values())


# ============================================================
# genus census
# ============================================================


def _entry(entries, genus):
    match = [e for e in entries if e.genus == genus]
    return match[0] if match else None


def test_genus_sixty_five_has_five_actions():
    entries = theorem1_table(65)
    entry = _entry(entries, 65)
    assert len(entry.actions) == 5
    assert entry.unknotted == 3 and entry.knotted == 2
    assert entry.group_order == 768
    assert [column for column, _ in entry.actions] == [1, 2, 3, 8, 9]


def test_small_genus_census():
    entries = theorem1_table(10)
    assert [e.genus for e in entries] == [2, 3, 4, 5, 9, 10]
    assert len(_entry(entries, 2).actions) == 1
    genus3 = _entry(entries, 3)
    assert len(genus3.actions) == 8
    assert genus3.unknotted == 3 and genus3.knotted == 5
    first = [row for column, row in genus3.actions if column == 1]
    assert first[0].group == "P432" and first[0].n == 1 and first[0].group_order == 24


@given(st.integers(min_value=2, max_value=128).flatmap(lambda g: st.tuples(st.just(g), st.integers(min_value=g + 1, max_value=129))))
@example((33, 65))
@settings(max_examples=50)
def test_census_is_stable_under_extension(bounds):
    # the census to g is the census to any g′ > g cut at genus g, entry for entry and in order
    g, larger = bounds
    assert theorem1_table(g) == [e for e in theorem1_table(larger) if e.genus <= g]


def test_every_census_genus_fits_one_of_five_forms():
    def fits(v: int) -> bool:
        for coeff, exp in ((2, 3), (4, 3), (8, 3), (1, 2), (3, 2)):
            n = 1
            while coeff * n**exp <= v:
                if coeff * n**exp == v:
                    return True
                n += 1
        return False

    for entry in theorem1_table(101):
        assert fits(entry.genus - 1), entry.genus


def test_theorem1_cells_cover_the_nine_columns():
    cells = theorem1_cells()
    assert len(cells) == 20
    by_column = {}
    for c in cells:
        by_column.setdefault(c.column, []).append(c)
    assert sorted(by_column) == list(range(1, 10))
    for column, group in by_column.items():
        for c in group:
            assert c.knotted == (column > 3)
    assert [len(by_column[c]) for c in range(1, 10)] == [3, 3, 3, 1, 2, 2, 1, 3, 2]
    forms = {(c.coefficient, c.exponent) for c in cells}
    assert forms == {(2, 3), (4, 3), (8, 3), (32, 3), (1, 2), (3, 2)}
    assert {c.form for c in cells} == {"2n^3", "4n^3", "8n^3", "4(2n)^3", "n^2", "3n^2"}
    four_doubled = [c for c in cells if c.form == "4(2n)^3"]
    assert len(four_doubled) == 1 and four_doubled[0].genus_minus_one(1) == 32


def test_the_cells_are_derived_from_the_family_table(monkeypatch):
    # coefficient |P|·i₁/12 and exponent 3 (cubic) or 2 (hexagonal), equal to each claimed pair
    cells = theorem1_cells()
    claimed = [(f.claimed_coefficient, f.claimed_exponent) for claim in THEOREM_1.values() for f in claim.families]
    assert [(c.coefficient, c.exponent) for c in cells] == claimed
    for c, f in zip(cells, (f for claim in THEOREM_1.values() for f in claim.families)):
        G = make_group(c.group)
        i1 = _family_table(G.T0, G.frame.name)[f.tag][3]
        assert (c.coefficient, c.exponent) == (G.point_order * i1 // 12, 2 if f.tag.startswith("HEX") else 3)
    # a false claimed pair moves no cell
    _wrong_genus_form(monkeypatch)
    assert theorem1_cells() == cells


def test_an_index_off_the_family_table_fails_verify(monkeypatch):
    # a row's index, its genus and its cell's form come from the family table, and `verify_tables` reads each
    # row's index off its lattice's HNF as well: read wrong, it fails every case at index 8 by one claim line,
    # and the claims alone still pass
    monkeypatch.setattr(classify, "index", lambda sub, sup: 2 * index(sub, sup))
    assert verify_claims().ok
    errors = verify_tables(8).table_errors
    assert [err.split(":")[0] for err in errors] == [f"{group} {edge}" for group, edge in CASES]
    assert errors[0] == (
        "P432 alpha: the family table's index is not the lattice's at "
        "[('CUBIC_PRIMITIVE', 1), ('CUBIC_FACE', 1), ('CUBIC_BODY', 1), ('CUBIC_PRIMITIVE', 2)]"
    )


def test_census_rejects_tiny_bound():
    with pytest.raises(ValueError):
        theorem1_table(1)


@pytest.mark.parametrize("bad", [2.5, "101", True])
def test_census_rejects_a_max_genus_that_is_not_an_int(bad):
    with pytest.raises(ValueError, match="max_genus"):
        theorem1_table(bad)


# ============================================================
# claim verification
# ============================================================


def test_verify_claims_passes():
    report = verify_claims()
    assert report.ok
    assert len(report.checks) == 9
    assert [(c.group, c.edge_label) for c in report.checks] == list(CASES)
    for c in report.checks:
        assert c.connected
        assert c.computed_image == c.expected_image
    deep = [c for c in report.checks if (c.group, c.edge_label) == ("I4_132", "beta")]
    assert covolume(deep[0].computed_image) == 108
    hexcase = [c for c in report.checks if c.group == "P622"]
    assert hexcase[0].computed_image.rank == 2


def test_verify_tables_passes_at_moderate_index():
    report = verify_tables(48)
    assert report.ok
    assert report.table_errors == ()


def test_verify_tables_passes_at_every_small_index():
    # families whose first instance lies above the bound are not expected yet
    for k in range(1, 17):
        assert verify_tables(k).ok, k


def test_verify_past_the_cap_of_its_per_index_route_exits_2_before_any_check(monkeypatch, capsys):
    # the per-index route is linear in its bound, so a bound past the cap is refused before the claims are checked
    def refuse():
        raise AssertionError("verify_claims ran")

    monkeypatch.setattr(classify, "verify_claims", refuse)
    cap = classify._WALK_LIMIT
    with pytest.raises(TorsymError, match=f"^verify to index {cap + 1}: the per-index route is past the cap of {cap}$"):
        verify_tables(cap + 1)
    for bound in (cap + 1, 10**30):
        assert cli.main(["verify", "--max-index", str(bound)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: verify to index {bound}: the per-index route is past the cap of {cap}\n"
    # the cap itself is answered
    monkeypatch.undo()
    monkeypatch.setattr(classify, "_WALK_LIMIT", 8)
    assert verify_tables(8).ok
    with pytest.raises(TorsymError, match="past the cap of 8$"):
        verify_tables(9)


def test_verify_tables_fails_when_an_expected_family_is_missing(monkeypatch):
    # CUBIC_BODY first shows up for F4_132 alpha at index 16
    case = ("F4_132", "alpha")
    monkeypatch.setitem(THEOREM_1, case, THEOREM_1[case]._replace(families=THEOREM_1[case].families[:2]))
    assert verify_tables(15).ok
    report = verify_tables(16)
    assert not report.ok
    assert any(err.startswith("F4_132 alpha: survivors") for err in report.table_errors)


def _claim(mp, case, **changes):
    mp.setitem(THEOREM_1, case, THEOREM_1[case]._replace(**changes))


def _wrong_genus_form(mp):
    first, *rest = THEOREM_1[("P432", "alpha")].families
    _claim(mp, ("P432", "alpha"), families=(first._replace(claimed_coefficient=3), *rest))


CLAIM_MUTANTS = {
    "image": (
        lambda mp: _claim(mp, ("P432", "alpha"), claimed_image=instantiate("CUBIC_PRIMITIVE", 2)),
        "P432 alpha: connected=true image=MISMATCH [FAIL]",
    ),
    # a second P432 case claims a second marked class
    "marked-count": (
        lambda mp: mp.setitem(THEOREM_1, ("P432", "beta"), THEOREM_1[("P432", "alpha")]),
        "claim: P432: 1 marked edge classes, claimed 2 [FAIL]",
    ),
    "survivors": (
        lambda mp: _claim(mp, ("P432", "alpha"), families=THEOREM_1[("P432", "alpha")].families[:2]),
        "claim: P432 alpha: survivors",
    ),
    "genus-form": (
        _wrong_genus_form,
        "claim: P432 alpha: CUBIC_PRIMITIVE claims genus − 1 = 3·n^3, the family table (c, e) = (2, 3)",
    ),
    "knotted": (
        lambda mp: _claim(mp, ("I432", "beta"), knotted=False),
        "claim: I432 beta: claimed unknotted",
    ),
}


@pytest.mark.parametrize("mutant", CLAIM_MUTANTS)
def test_a_false_claim_fails_verify_as_a_claim(monkeypatch, capsys, mutant):
    mutate, line = CLAIM_MUTANTS[mutant]
    mutate(monkeypatch)
    assert cli.main(["verify", "--max-index", "8"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    # one line for the one false claim, then the verdict
    fails = [text for text in out.splitlines() if "FAIL" in text]
    assert len(fails) == 2 and fails[0].startswith(line) and fails[1] == "FAIL", out


def test_verify_checks_riemann_hurwitz_on_the_33_connected_edge_orbits(monkeypatch):
    # one 12χ per edge orbit whose orbit graph is connected modulo T0; the 9 others are skipped
    links = []
    euler12 = classify._link_euler12
    monkeypatch.setattr(classify, "_link_euler12", lambda link: links.append(link) or euler12(link))
    assert verify_claims().ok
    assert len(links) == 33


def test_a_misread_link_order_fails_riemann_hurwitz_as_claims(monkeypatch, capsys):
    # an order 3 read as 4 moves 12χ of every link that has a 3: each connected orbit with such a link
    # gives one claim line, and the nine image checks still pass
    euler12 = classify._link_euler12
    monkeypatch.setattr(classify, "_link_euler12", lambda link: euler12(tuple(4 if a == 3 else a for a in link)))
    reached = 0
    for G in map(make_group, GROUP_NAMES):
        for e in periodic_graphs._singular_data(G).edges:
            try:
                cycle_image_lattice(edge_orbit_graph(G, e))
            except Disconnected:
                continue
            reached += 3 in e.link
    assert cli.main(["verify"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    fails = [text for text in out.splitlines() if text.startswith("claim: ")]
    assert len(fails) == reached == 26
    assert all(" edge orbit " in text and "24·(E − V) = " in text and text.endswith("[FAIL]") for text in fails)
    assert out.count("[ok]") == 9 and out.endswith("\nFAIL\n")


def test_a_row_lost_by_the_per_index_route_fails_verify_as_one_claim(monkeypatch, capsys):
    # verify compares each group's closed-form survey with the per-index route row for row: one row
    # dropped from one group's per-index rows gives one claim line naming that route
    walked = classify._walked_rows
    monkeypatch.setattr(classify, "_walked_rows", lambda G, bound: walked(G, bound)[: -1 if G.name == "I432" else None])
    assert cli.main(["verify", "--max-index", "64"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    fails = [text for text in out.splitlines() if "FAIL" in text]
    assert fails == ["claim: I432: the closed-form survey to index 64 differs from the per-index route [FAIL]", "FAIL"]


def test_report_rendering():
    report = verify_claims()
    text = report_to_text(report)
    assert text.endswith("PASS")
    assert text.count("[ok]") == 9
    data = report_to_json(report)
    assert data["ok"] is True
    assert len(data["checks"]) == 9


# ============================================================
# emitters
# ============================================================


def test_rows_emitters_round_trip_basic_fields():
    rows = classify_case("I432", "beta", 64)
    data = rows_to_json(rows)
    assert data["schema_version"] == 1
    assert [r["genus"] for r in data["rows"]] == [3, 55]
    assert data["rows"][0]["lattice"]["scale"] == "1/2"
    csv = rows_to_csv(rows).splitlines()
    assert csv[0].startswith("group,edge,family")
    assert csv[1] == "I432,beta,CUBIC_BODY,1,,2∤n,1,24,3,1"
    text = rows_to_text(rows)
    assert "T_27/2" in text
    json.dumps(data)


def test_table_emitters():
    entries = theorem1_table(9)
    data = table_to_json(entries)
    assert data["genera"][0]["genus"] == 2
    csv = table_to_csv(entries).splitlines()
    assert csv[0].startswith("genus,group_order,column")
    assert len(csv) == 1 + sum(len(e.actions) for e in entries)
    json.dumps(data)


# ============================================================
# command line
# ============================================================


def test_cli_groups_lists_six(capsys):
    assert cli.main(["groups"]) == 0
    out = capsys.readouterr().out
    assert out.count("point_order") == 6


def test_cli_groups_json_has_generators(capsys):
    assert cli.main(["groups", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["groups"]) == 6
    assert all(g["generators"] for g in data["groups"])


def test_cli_classify_matches_library(capsys):
    assert cli.main(["classify", "P432", "alpha", "--max-index", "8"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip("\n") == rows_to_text(classify_case("P432", "alpha", 8))


def test_cli_table_json(capsys):
    assert cli.main(["table", "--max-genus", "5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [g["genus"] for g in data["genera"]] == [2, 3, 4, 5]


def test_cli_verify_exits_zero(capsys):
    assert cli.main(["verify"]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def test_cli_edges_json(capsys):
    assert cli.main(["edges", "I4_132", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [e["label"] for e in data["edges"]] == ["alpha", "beta"]


def test_cli_singular_graph_lists_every_segment(capsys):
    assert cli.main(["singular-graph", "P432"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1 + 56


def test_cli_rejects_unknown_group():
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "NOSUCH", "alpha"])
    assert exc.value.code == 2


def test_cli_reports_usage_errors_with_exit_two(capsys):
    assert cli.main(["classify", "P432", "beta"]) == 2
    assert "no edge beta" in capsys.readouterr().err
    # an edge the group lacks and no case names is the caller's error, not an internal one
    assert cli.main(["classify", "P622", "gamma"]) == 2
    assert "P622 has no edge gamma; choose from ['beta']" in capsys.readouterr().err
    with pytest.raises(ValueError, match="no edge gamma") as exc:
        classify_case("P622", "gamma", 12)
    assert not isinstance(exc.value, InvariantViolation)


def test_a_claimed_case_the_record_does_not_derive_is_an_internal_error(monkeypatch, capsys):
    # CASES names P432 alpha; a record whose derived marked edges lack it is a fault
    # in the program, not in the command line
    derived = classify._cases

    def without_p432_alpha(G):
        return {label: c for label, c in derived(G).items() if (G.name, label) != ("P432", "alpha")}

    monkeypatch.setattr(classify, "_cases", without_p432_alpha)
    with pytest.raises(InvariantViolation, match="P432 has no edge alpha"):
        classify.theorem1_cells()
    assert cli.main(["table", "--max-genus", "20"]) == 3
    assert capsys.readouterr().err.startswith("internal error: P432 has no edge alpha")


def test_cli_reports_internal_errors_with_exit_three(monkeypatch, capsys):
    # a normalizer map that moves a marked edge off the singular set is a
    # fault in the program, not in the command line
    import torsym.periodic_graphs as pg

    # x ↦ x + (1/3, 0, 0), as (s, y, top) in the basis of T0 = ℤ³ with translation y/top
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    bad = ((identity, (1, 0, 0), 3),)
    monkeypatch.setattr(pg, "_normalizer_solutions", lambda G: bad)
    # the singular data carry the normalizer maps, so they are rebuilt with the bad one, and so
    # are the cases, which the command line reads too; a call that raises leaves no cache entry
    monkeypatch.setattr(pg, "_singular_data", pg._singular_data.__wrapped__)
    classify._cases.cache_clear()
    assert cli.main(["edges", "P432"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ")
    assert "does not preserve the marked edges" in err


def _out_of_memory(*_):
    raise MemoryError


@pytest.mark.parametrize(
    "argv, patched, line",
    [
        (["table", "--max-genus", str(10**23)], "theorem1_table", f"error: out of memory: table --max-genus {10**23}"),
        (["classify", "P622", "beta", "--max-index", str(10**20)], "classify_case", f"error: out of memory: classify --max-index {10**20}"),
    ],
    ids=["table", "classify"],
)
def test_cli_reports_running_out_of_memory_with_exit_four(monkeypatch, capsys, argv, patched, line):
    # raised by a stand-in: a bound large enough to exhaust memory for real is never run here
    monkeypatch.setattr(cli, patched, _out_of_memory)
    assert cli.main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == line + "\n"


def test_cli_frees_what_the_failing_call_built_before_it_reports(monkeypatch):
    # a real MemoryError leaves its rows on the traceback; a report written while they
    # are alive runs out of memory itself
    refs, freed = [], []

    class Rows(list):
        pass

    def build(*_):
        rows = Rows()
        refs.append(weakref.ref(rows))
        raise MemoryError

    class Stderr:
        def write(self, text):
            freed.append(refs[0]() is None)

    monkeypatch.setattr(cli, "theorem1_table", build)
    monkeypatch.setattr(sys, "stderr", Stderr())
    assert cli.main(["table", "--max-genus", "5"]) == 4
    assert freed and all(freed)


def test_cold_census_builds_each_case_graph_once(monkeypatch):
    # labeled_marked_edges reads each marked orbit's quotient graph for its cycle
    # image, and the case that carries its label reuses that graph
    for f in vars(classify).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    built = []

    def counting(G, e, suppress=True):
        built.append((G.name, e.orbit_id))
        return edge_orbit_graph(G, e, suppress)

    monkeypatch.setattr(classify, "edge_orbit_graph", counting)
    theorem1_table(101)
    assert len(built) == len(set(built)) == len(CASES) == 9


def test_cold_census_derives_each_family_table_once():
    # the cases, the surveys and the claim checks read one memoised family table per (T0, frame name):
    # five for the six groups, as P432 and P4_232 share T0 = ℤ³
    for f in (*vars(classify).values(), sublattices._family_table):
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    theorem1_table(101)
    tables = {(G.T0, G.frame.name) for G in map(make_group, GROUP_NAMES)}
    assert sublattices._family_table.cache_info().misses == len(tables) == 5


def test_every_reader_refuses_a_tie_in_family_index(monkeypatch, capsys):
    # the face-centred unit set to the primitive one: two P432 families of index 1 in T0 = ℤ³, whose survey
    # would repeat a lattice under two tags; the family table refuses the tie, and so does each of its readers
    G, tie = make_group("P432"), r"^families of equal index \[1, 1, 4\] in T0 of covolume 1$"
    _cases(G)  # warm, so that classify_case and the row reach their own lookups of the table
    monkeypatch.setitem(sublattices._UNITS, "CUBIC_FACE", sublattices._UNITS["CUBIC_PRIMITIVE"])
    readers = {
        "survey": lambda: normal_translation_subgroups(G, 8),
        "cases": lambda: _cases.__wrapped__(G),
        "classify_case": lambda: classify_case("P432", "alpha", 8),
        "ClassificationRow": lambda: ClassificationRow("P432", "alpha", LatticeFamily("CUBIC_PRIMITIVE", 1)),
        "cli": lambda: cli.main(["classify", "P432", "alpha", "--max-index", "8"]),
    }
    try:
        for name, read in readers.items():
            # each reader derives the table anew, so none is answered by one derived before the edit
            sublattices._family_table.cache_clear()
            if name == "cli":
                assert read() == 3
                assert capsys.readouterr().err == "internal error: families of equal index [1, 1, 4] in T0 of covolume 1\n"
            else:
                with pytest.raises(InvariantViolation, match=tie):
                    read()
    finally:
        monkeypatch.undo()
        sublattices._family_table.cache_clear()
        classify._cases.cache_clear()
