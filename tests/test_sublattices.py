"""Sublattice enumeration, invariance filtering and family matching."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

from torsym.errors import InvariantViolation, NotASubgroup, RankDeficient, UnmatchedLattice
from torsym.lattices import (
    TRIVIAL_SUBGROUP,
    SubgroupHNF,
    _from_t0_hnf,
    covolume,
    hnf,
    hnf_columns,
    index,
    is_subgroup,
    relative_integer_basis,
)
from torsym.spacegroups import (
    CUBIC_FRAME,
    GROUP_NAMES,
    HEX_FRAME,
    ROT_OMEGA,
    ROT_XYZ,
    ROT_Y,
    ROT_Y_HEX,
    ROT_Z,
    ROT_Z_HEX,
    T_HALF,
    make_group,
)
import torsym
from torsym import cli, sublattices
from torsym.sublattices import (
    CUBIC_TAGS,
    FAMILY_TAGS,
    HEX_TAGS,
    LatticeFamily,
    _coord_rotations,
    _coprime_meet,
    _prime_power_parts,
    _rotation_generators,
    _survey,
    instantiate,
    invariant_sublattices,
    match_family,
    normal_translation_subgroups,
)

from oracles import (
    _from_t0_coords,
    enumerate_sublattices,
    from_coords,
    intersect,
    is_invariant,
    literal_invariant_sublattices,
    survey_rows_by_lattice,
)

Z3 = hnf([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
T2 = hnf([(2, 0, 0), (1, 1, 0), (1, 0, 1)])
CUBIC_ROTS = (ROT_Y, ROT_Z, ROT_XYZ)
HEX_ROTS = (ROT_OMEGA, ROT_Y_HEX, ROT_Z_HEX)


def sublattice_count(d: int) -> int:
    """Classical count of index-d sublattices of Z³."""
    total = 0
    for a in range(1, d + 1):
        if d % a:
            continue
        for b in range(1, d // a + 1):
            if (d // a) % b:
                continue
            c = d // (a * b)
            total += b * c * c
    return total


# ============================================================
# family construction
# ============================================================


def test_family_validation():
    with pytest.raises(ValueError):
        LatticeFamily("CUBIC_DIAGONAL", 1)
    with pytest.raises(ValueError):
        LatticeFamily("CUBIC_PRIMITIVE", 0)
    with pytest.raises(ValueError):
        LatticeFamily("HEX_PRIMITIVE", 2)
    with pytest.raises(ValueError):
        LatticeFamily("CUBIC_FACE", 2, 3)


@pytest.mark.parametrize(
    "args, message",
    [
        (("CUBIC_BODY", 1, 7), "single parameter"),
        (("CUBIC_PRIMITIVE", 0), "family parameter n"),
        (("CUBIC_PRIMITIVE", -2), "family parameter n"),
        # 2.5 would scale ℤ³ by a non-integer and True would pass as 1
        (("CUBIC_PRIMITIVE", 2.5), "family parameter n"),
        (("CUBIC_PRIMITIVE", True), "family parameter n"),
        (("CUBIC_FACE", "3"), "family parameter n"),
        (("HEX_ROT", 2, 1.5), "family parameter m"),
        (("HEX_PRIMITIVE", 1, True), "family parameter m"),
    ],
    ids=["cubic-with-m", "n-zero", "n-negative", "n-float", "n-bool", "n-str", "m-float", "m-bool"],
)
def test_instantiate_rejects_what_the_family_rejects(args, message):
    # the same rules as LatticeFamily: n ≥ 1 and m ≥ 1 are ints, and m only for hexagonal tags
    with pytest.raises(ValueError, match=message):
        LatticeFamily(*args)
    with pytest.raises(ValueError, match=message):
        instantiate(*args)


def test_instantiate_known_lattices():
    assert instantiate("CUBIC_PRIMITIVE", 1) == Z3
    assert instantiate("CUBIC_FACE", 1) == T2
    assert instantiate("CUBIC_BODY", 2) == hnf([(2, 0, 0), (0, 2, 0), (1, 1, 1)])
    assert instantiate("CUBIC_BODY", 1) == make_group("I432").T0
    assert instantiate("HEX_PRIMITIVE", 1, 1) == Z3
    assert instantiate("HEX_ROT", 1, 1) == hnf([(2, 1, 0), (1, 2, 0), (0, 0, 1)])


def _fraction_generators(tag, n, m):
    """A family's generators as `Fraction`s, the body centre written with T_HALF, so `hnf` takes its rational route."""
    gens = {
        "CUBIC_PRIMITIVE": [(n, 0, 0), (0, n, 0), (0, 0, n)],
        "CUBIC_FACE": [(2 * n, 0, 0), (n, n, 0), (n, 0, n)],
        "CUBIC_BODY": [(n, 0, 0), (0, n, 0), tuple(n * t for t in T_HALF)],
        "HEX_PRIMITIVE": [(n, 0, 0), (0, n, 0), (0, 0, m)],
        "HEX_ROT": [(2 * n, n, 0), (n, 2 * n, 0), (0, 0, m)],
    }[tag]
    return [tuple(map(Fraction, g)) for g in gens]


def test_instantiate_equals_hnf_of_the_fraction_generators():
    # every family is built from integer columns; odd CUBIC_BODY is the only one over den 2
    for tag in FAMILY_TAGS:
        for n in range(1, 65):
            for m in range(1, 5) if tag in HEX_TAGS else [None]:
                assert instantiate(tag, n, m) == hnf(_fraction_generators(tag, n, m)), (tag, n, m)


# ============================================================
# exhaustive enumeration
# ============================================================


def test_enumerate_trivial_and_small():
    assert enumerate_sublattices(Z3, 1) == [Z3]
    subs = enumerate_sublattices(Z3, 2)
    assert len(subs) == 7
    assert len(set(subs)) == 7
    assert all(index(L, Z3) == 2 for L in subs)


def test_enumerate_relative_to_nontrivial_t0():
    subs = enumerate_sublattices(T2, 2)
    assert len(subs) == 7
    assert all(is_subgroup(L, T2) and index(L, T2) == 2 for L in subs)


def test_enumerate_contains_body_lattice_at_index_4():
    subs = enumerate_sublattices(Z3, 4)
    assert instantiate("CUBIC_BODY", 2) in subs


@given(st.integers(min_value=1, max_value=24))
def test_enumerate_count_matches_closed_form(d):
    subs = enumerate_sublattices(Z3, d)
    assert len(subs) == sublattice_count(d)
    assert len(set(subs)) == len(subs)


def test_enumerate_errors():
    with pytest.raises(RankDeficient):
        enumerate_sublattices(TRIVIAL_SUBGROUP, 2)
    with pytest.raises(ValueError):
        enumerate_sublattices(Z3, 0)


# ============================================================
# invariance
# ============================================================


def test_is_invariant_examples():
    p432 = make_group("P432")
    assert is_invariant(p432.T0, p432)
    assert not is_invariant(hnf([(1, 0, 0), (0, 2, 0), (0, 0, 2)]), p432)
    assert is_invariant(T2, p432)


def test_is_invariant_requires_containment():
    f4132 = make_group("F4_132")
    with pytest.raises(NotASubgroup):
        is_invariant(Z3, f4132)


def test_filtering_matches_literal_is_invariant():
    g = make_group("P432")
    for d in range(1, 17):
        expected = sorted(
            (L for L in enumerate_sublattices(g.T0, d) if is_invariant(L, g)),
            key=lambda L: (-L.den, L.basis),
        )
        got = literal_invariant_sublattices(g.T0, CUBIC_ROTS, d)
        assert got == expected


def test_primary_recombination_matches_literal():
    # 64..128 take the descent below T0: to a simple M/pM at M = 3·T0 and 5·T0
    # (cubic), and to lines in no invariant plane, whose 2-dimensional
    # quotient is simple, at p = 5 and 11 (hexagonal)
    for t0, rots in ((Z3, CUBIC_ROTS), (T2, CUBIC_ROTS), (Z3, HEX_ROTS)):
        for d in list(range(1, 49)) + [64, 81, 121, 125, 128]:
            lit = literal_invariant_sublattices(t0, rots, d)
            pri = invariant_sublattices(t0, rots, d)
            assert pri == lit, (t0, d)
    # one 2-fold rotation: 2-dimensional common eigenspaces, and at p = 2 a
    # scalar action whose every line and plane is invariant
    total = 0
    for d in range(1, 33):
        lit = literal_invariant_sublattices(Z3, (ROT_Z,), d)
        assert invariant_sublattices(Z3, (ROT_Z,), d) == lit, d
        total += len(lit)
    assert total == 2380


_PRIMES_53_251 = [p for p in range(53, 252) if all(p % q for q in range(2, int(p**0.5) + 1))]
ROT_4 = ((0, -1, 0), (1, 0, 0), (0, 0, 1))  # 4-fold about z, cubic frame
ROT_6 = ((1, -1, 0), (1, 0, 0), (0, 0, 1))  # 6-fold about z, hexagonal frame


def test_descent_matches_literal_at_large_primes():
    # at p ≥ 53 every group acts semisimply mod p; p² ∈ {121, 169, 289} also
    # reaches the lines of F_p³ and the lattices with quotient ℤ/p²
    for t0, rots in ((Z3, CUBIC_ROTS), (T2, CUBIC_ROTS), (Z3, HEX_ROTS)):
        for d in _PRIMES_53_251 + [121, 169, 289]:
            lit = literal_invariant_sublattices(t0, rots, d)
            assert invariant_sublattices(t0, rots, d) == lit, (t0, rots, d)


@pytest.mark.parametrize(
    "rot, split, whole",
    [
        (ROT_XYZ, [7, 13, 61, 67], [5, 11, 59, 71]),  # 3-fold: eigenvalues ω, ω² iff p ≡ 1 (mod 3)
        (ROT_4, [5, 13, 53, 61], [7, 11, 59, 67]),  # 4-fold: eigenvalues ±i iff p ≡ 1 (mod 4)
        (ROT_6, [7, 13, 61, 67], [5, 11, 59, 71]),  # 6-fold: eigenvalues −ω, −ω² iff p ≡ 1 (mod 3)
    ],
)
def test_descent_matches_literal_for_one_rotation(rot, split, whole):
    # index p counts the invariant planes: the sums of two of three eigenlines
    # when all eigenvalues lie in F_p, else only the complement of the axis
    for primes, planes in ((split, 3), (whole, 1)):
        for p in primes:
            lit = literal_invariant_sublattices(Z3, (rot,), p)
            assert invariant_sublattices(Z3, (rot,), p) == lit, (rot, p)
            assert len(lit) == planes, (rot, p)
            if p * p <= 169:
                lit = literal_invariant_sublattices(Z3, (rot,), p * p)
                assert invariant_sublattices(Z3, (rot,), p * p) == lit, (rot, p * p)


def test_descent_needs_every_rotation():
    # the two half-turns of D2 each leave invariant planes the other moves, so a
    # descent that skipped either one would keep p + 1 planes through an axis
    for p in [5, 7, 11, 13] + _PRIMES_53_251[:4]:
        for d in (p, p * p) if p <= 13 else (p,):
            lit = literal_invariant_sublattices(Z3, (ROT_Y, ROT_Z), d)
            assert invariant_sublattices(Z3, (ROT_Y, ROT_Z), d) == lit, d
        assert len(literal_invariant_sublattices(Z3, (ROT_Y, ROT_Z), p)) == 3


def test_descent_ignores_the_order_of_the_rotations():
    indices = [2, 4, 8, 16, 32, 64, 3, 9, 27, 81, 5, 25, 125, 7, 49, 11, 121, 13, 169] + _PRIMES_53_251
    rotation_sets = [(Z3, CUBIC_ROTS), (Z3, HEX_ROTS), (Z3, (ROT_Y, ROT_Z))]
    rotation_sets += [(make_group(name).T0, _rotation_generators(make_group(name))) for name in GROUP_NAMES]
    for t0, rots in rotation_sets:
        expected = [invariant_sublattices(t0, rots, d) for d in indices]
        for perm in permutations(rots):
            assert [invariant_sublattices(t0, perm, d) for d in indices] == expected, (t0, perm)


def test_coprime_recombination_matches_intersect():
    for name in ("P432", "F4_132", "I4_132", "I432", "P4_232", "P622"):
        g = make_group(name)
        rots = tuple(x.rot for x in g.generators)
        for d in range(2, 257):
            qs = [p**k for p, k in _prime_power_parts(d)]
            if len(qs) < 2:
                continue
            expected = [g.T0]
            for q in qs:
                expected = [intersect(a, b) for a in expected for b in invariant_sublattices(g.T0, rots, q)]
            expected.sort(key=lambda L: (-L.den, L.basis))
            assert invariant_sublattices(g.T0, rots, d) == expected, (name, d)


@st.composite
def _coprime_hnfs(draw):
    """Two full-rank integer column HNFs A and B whose indices are coprime."""
    pivot = st.integers(min_value=1, max_value=30)
    a = [draw(pivot) for _ in range(3)]
    b = []
    for _ in range(3):
        x = draw(pivot)
        while (g := math.gcd(x, a[0] * a[1] * a[2])) > 1:
            x //= g
        b.append(x)

    def basis(p):
        x10 = draw(st.integers(0, p[1] - 1))
        x20, x21 = (draw(st.integers(0, p[2] - 1)) for _ in range(2))
        return ((p[0], x10, x20), (0, p[1], x21), (0, 0, p[2]))

    return basis(a), basis(b)


@given(_coprime_hnfs())
@example((((2, 1, 1), (0, 2, 0), (0, 0, 2)), ((3, 2, 2), (0, 3, 1), (0, 0, 3))))
@example((((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((5, 4, 3), (0, 7, 6), (0, 0, 11))))
def test_coprime_meet_matches_stacked_hnf_and_intersect(pair):
    A, B = pair
    a, b = (M[0][0] * M[1][1] * M[2][2] for M in pair)
    C = _coprime_meet(A, B)
    assert C == hnf_columns([*(tuple(b * x for x in col) for col in A), *(tuple(a * x for x in col) for col in B)])
    assert hnf(C) == intersect(hnf(A), hnf(B))
    assert _coprime_meet(B, A) == C


@pytest.mark.parametrize("d", [True, 2.0, "4"], ids=["bool", "float", "str"])
def test_survey_rejects_an_index_that_is_not_an_int(d):
    # refused at the entry, by name: True is not index 1, and 2.0 or "4" never reach the descent
    with pytest.raises(ValueError, match=re.escape(repr(d))):
        invariant_sublattices(Z3, CUBIC_ROTS, d)
    with pytest.raises(ValueError, match=re.escape(repr(d))):
        normal_translation_subgroups(make_group("P432"), d)


@pytest.mark.parametrize(
    "rot",
    [
        ((Fraction(1, 2), 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1.5, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0), (0, 1)),
        ((True, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 0)),
        7,
    ],
    ids=["fraction", "float", "2x2", "bool", "2x3", "int"],
)
def test_invariant_sublattices_rejects_a_malformed_rotation(rot):
    # checked up front and named, not a TypeError from the frame or an unpacking error
    with pytest.raises(ValueError, match=re.escape(repr(rot))):
        invariant_sublattices(Z3, (ROT_Z, rot), 2)


def test_invariant_rejects_unstable_t0():
    skew = hnf([(1, 0, 0), (0, 2, 0), (0, 0, 3)])
    with pytest.raises(ValueError):
        invariant_sublattices(skew, (ROT_XYZ,), 2)


def test_invariant_rejects_infinite_order_rotation():
    # integral and invertible, but of infinite order: no root of unity bounds its eigenvalues
    shear = ((0, 1, 0), (1, 1, 0), (0, 0, 1))
    # each of finite order, but ROT_4 · B is the shear ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    B = ((0, 1, 0), (-1, -1, 0), (0, 0, 1))
    for route in (invariant_sublattices, literal_invariant_sublattices):
        with pytest.raises(ValueError):
            route(Z3, (ROT_Z, shear), 5)
        for d in (1, 5):
            with pytest.raises(ValueError, match="finite group"):
                route(Z3, (ROT_4, B), d)
        # a projection closes up under products but is not invertible
        with pytest.raises(ValueError):
            route(Z3, (((1, 0, 0), (0, 1, 0), (0, 0, 0)),), 5)


def test_cubic_survivors_match_families_to_32():
    expected = set()
    for u in range(1, 4):
        if u**3 <= 32:
            expected.add(instantiate("CUBIC_PRIMITIVE", u))
    for u in range(1, 3):
        if 2 * u**3 <= 32:
            expected.add(instantiate("CUBIC_FACE", u))
    for u in range(1, 3):
        if 4 * u**3 <= 32:
            expected.add(instantiate("CUBIC_BODY", 2 * u))
    got = set()
    for d in range(1, 33):
        got.update(literal_invariant_sublattices(Z3, CUBIC_ROTS, d))
    assert got == expected


def test_hex_survivors_match_families_to_16():
    expected = set()
    for n in range(1, 5):
        for m in range(1, 17):
            if n * n * m <= 16:
                expected.add(instantiate("HEX_PRIMITIVE", n, m))
            if 3 * n * n * m <= 16:
                expected.add(instantiate("HEX_ROT", n, m))
    got = set()
    for d in range(1, 17):
        got.update(literal_invariant_sublattices(Z3, HEX_ROTS, d))
    assert got == expected


_coord_entries = st.integers(min_value=-6, max_value=6)


@given(
    st.sampled_from(GROUP_NAMES),
    st.lists(st.tuples(_coord_entries, _coord_entries, _coord_entries), min_size=3, max_size=3),
)
@example("I432", [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
@example("I432", [(2, 0, 0), (0, 4, 0), (0, 0, 6)])
@example("I4_132", [(3, 1, 0), (0, 3, 0), (1, 1, 3)])
def test_integer_canonicalisation_matches_fraction_route(name, basis):
    # the reference route maps every column to a Fraction vector and takes its hnf
    T0 = make_group(name).T0
    assume(hnf(basis).rank == 3)
    assert _from_t0_coords(T0, tuple(basis)) == hnf([from_coords(col, T0) for col in basis])


# ============================================================
# family matching
# ============================================================


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_match_family_agrees_with_a_scan_of_instances(name):
    G = make_group(name)
    hexagonal = G.frame.name == "HEXAGONAL"
    bound = 64 * covolume(G.T0)
    scan: dict = {}
    for tag in HEX_TAGS if hexagonal else CUBIC_TAGS:
        for n in range(1, 9):
            for m in range(1, 65) if hexagonal else (None,):
                L = instantiate(tag, n, m)
                if covolume(L) <= bound:
                    scan.setdefault(L, []).append(LatticeFamily(tag, n, m))
    surveyed = normal_translation_subgroups(G, 64)  # each family comes from match_family
    assert surveyed
    for L, fam, _ in surveyed:
        assert scan.get(L) == [fam]


def test_match_family_known_values():
    assert match_family(T2, CUBIC_FRAME) == LatticeFamily("CUBIC_FACE", 1)
    assert match_family(
        hnf([(6, 0, 0), (0, 6, 0), (3, 3, 3)]), CUBIC_FRAME
    ) == LatticeFamily("CUBIC_BODY", 6)
    assert match_family(Z3, CUBIC_FRAME) == LatticeFamily("CUBIC_PRIMITIVE", 1)
    assert match_family(Z3, HEX_FRAME) == LatticeFamily("HEX_PRIMITIVE", 1, 1)
    # beyond float range, and just past 2**53 where a float cube root rounds wrongly
    for n in (10**103, 2**53 + 1):
        fam = LatticeFamily("CUBIC_PRIMITIVE", n)
        assert match_family(fam.instantiate(), CUBIC_FRAME) == fam


@given(
    st.sampled_from(["CUBIC_PRIMITIVE", "CUBIC_FACE", "CUBIC_BODY"]),
    st.integers(min_value=1, max_value=12),
)
def test_match_family_roundtrip_cubic(tag, n):
    fam = LatticeFamily(tag, n)
    assert match_family(fam.instantiate(), CUBIC_FRAME) == fam


@given(
    st.sampled_from(["HEX_PRIMITIVE", "HEX_ROT"]),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
)
def test_match_family_roundtrip_hex(tag, n, m):
    fam = LatticeFamily(tag, n, m)
    assert match_family(fam.instantiate(), HEX_FRAME) == fam


def test_match_family_rejects_non_family_lattices():
    with pytest.raises(UnmatchedLattice):
        match_family(hnf([(1, 0, 0), (0, 1, 0), (0, 0, 2)]), CUBIC_FRAME)
    with pytest.raises(UnmatchedLattice):
        match_family(hnf([(1, 0, 0), (0, 2, 0), (0, 0, 2)]), HEX_FRAME)
    with pytest.raises(RankDeficient):
        match_family(TRIVIAL_SUBGROUP, CUBIC_FRAME)


_UNMATCHED = "no closed-form family matches covolume "


@pytest.mark.parametrize(
    "L, frame, error, message",
    [
        # the planar columns of each hexagonal family, at scales 1/2 and 1/5
        (SubgroupHNF(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 2), HEX_FRAME, UnmatchedLattice, _UNMATCHED + "1/8"),
        (SubgroupHNF(((2, 4, 0), (0, 6, 0), (0, 0, 3)), 5), HEX_FRAME, UnmatchedLattice, _UNMATCHED + "36/125"),
        # each cubic family at n = 3, and a hexagonal one, with one entry below a pivot off by one
        (hnf([(3, 1, 0), (0, 3, 0), (0, 0, 3)]), CUBIC_FRAME, UnmatchedLattice, _UNMATCHED + "27"),
        (hnf([(3, 0, 4), (0, 3, 3), (0, 0, 6)]), CUBIC_FRAME, UnmatchedLattice, _UNMATCHED + "54"),
        (SubgroupHNF(((3, 3, 3), (0, 6, 1), (0, 0, 6)), 2), CUBIC_FRAME, UnmatchedLattice, _UNMATCHED + "27/2"),
        (hnf([(2, 4, 0), (0, 6, 1), (0, 0, 3)]), HEX_FRAME, UnmatchedLattice, _UNMATCHED + "36"),
        (hnf([(1, 0, 0), (0, 1, 0)]), CUBIC_FRAME, RankDeficient, "match_family requires a rank-3 subgroup"),
        (TRIVIAL_SUBGROUP, HEX_FRAME, RankDeficient, "match_family requires a rank-3 subgroup"),
    ],
)
def test_match_family_refusals(L, frame, error, message):
    with pytest.raises(error) as caught:
        match_family(L, frame)
    assert type(caught.value) is error and str(caught.value) == message


def test_match_family_hexagonal_is_closed_form():
    # n comes from the third HNF pivot m and the covolume n²·m, not from a search over n
    start = time.perf_counter()
    with pytest.raises(UnmatchedLattice):
        match_family(hnf([(1, 0, 0), (0, 2, 0), (0, 0, 10**12)]), HEX_FRAME)
    assert time.perf_counter() - start < 0.1
    for fam in (LatticeFamily("HEX_PRIMITIVE", 10**9, 7), LatticeFamily("HEX_ROT", 10**9 + 7, 10**6)):
        assert match_family(fam.instantiate(), HEX_FRAME) == fam


_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import torsym
import torsym.cli
loaded = sys.modules["numpy"] is not None
table = io.StringIO()
with contextlib.redirect_stdout(table):
    table_code = torsym.cli.main(["table", "--max-genus", "101", "--format", "json"])
with contextlib.redirect_stdout(io.StringIO()):
    verify_code = torsym.cli.main(["verify", "--max-index", "64"])
survey = [
    repr(torsym.normal_translation_subgroups(torsym.make_group(name), 64))
    for name in torsym.GROUP_NAMES
]
print(json.dumps([loaded, table_code, table.getvalue(), verify_code, survey]))
"""


def test_import_does_not_load_numpy():
    # numpy is a test dependency only: torsym neither imports it nor needs it
    src = str(Path(torsym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, torsym; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=60,
    )
    assert out.stdout.strip() == "False"
    # with numpy blocked, the census, the verification and the survey run as in this process
    out = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=300,
    )
    loaded, table_code, table, verify_code, survey = json.loads(out.stdout)
    assert not loaded
    expected = io.StringIO()
    with contextlib.redirect_stdout(expected):
        assert cli.main(["table", "--max-genus", "101", "--format", "json"]) == 0
    assert (table_code, table) == (0, expected.getvalue())
    assert verify_code == 0
    assert survey == [
        repr(normal_translation_subgroups(make_group(name), 64)) for name in GROUP_NAMES
    ]


# ============================================================
# the full survey
# ============================================================


def test_survey_p432_trivial_index():
    g = make_group("P432")
    rows = normal_translation_subgroups(g, 1)
    assert rows == [(g.T0, LatticeFamily("CUBIC_PRIMITIVE", 1), 24)]


def test_survey_f4132_to_16():
    g = make_group("F4_132")
    rows = normal_translation_subgroups(g, 16)
    got = [(fam, idx) for _, fam, idx in rows]
    assert got == [
        (LatticeFamily("CUBIC_FACE", 1), 24),
        (LatticeFamily("CUBIC_PRIMITIVE", 2), 96),
        (LatticeFamily("CUBIC_FACE", 2), 192),
        (LatticeFamily("CUBIC_BODY", 4), 384),
    ]


def test_survey_index_bookkeeping_and_determinism():
    for name in ("P432", "I432", "P622"):
        g = make_group(name)
        rows = normal_translation_subgroups(g, 24)
        assert rows == normal_translation_subgroups(g, 24)
        for L, fam, idx in rows:
            assert fam.instantiate() == L
            assert idx == g.point_order * index(L, g.T0)
            assert is_invariant(L, g)


def test_survey_p622_small_indices():
    g = make_group("P622")
    rows = normal_translation_subgroups(g, 4)
    got = [(fam.tag, fam.n, fam.m, idx) for _, fam, idx in rows]
    assert ("HEX_PRIMITIVE", 1, 1, 12) in got
    assert ("HEX_ROT", 1, 1, 36) in got
    assert ("HEX_PRIMITIVE", 2, 1, 48) in got
    assert len(rows) == 6


def test_survey_rejects_bad_max_index():
    with pytest.raises(ValueError):
        normal_translation_subgroups(make_group("P432"), 0)


def test_index_one_is_t0_alone():
    for name in GROUP_NAMES:
        G = make_group(name)
        assert invariant_sublattices(G.T0, _rotation_generators(G), 1) == [G.T0]
    assert invariant_sublattices(Z3, CUBIC_ROTS, 1) == [Z3]


def test_survey_answers_are_fresh_lists():
    # the survey and the descent are cached, so a caller's edit must not reach the next answer
    for d in (1, 4, 54):
        first = invariant_sublattices(Z3, CUBIC_ROTS, d)
        expected = list(first)
        first.clear()
        assert invariant_sublattices(Z3, CUBIC_ROTS, d) == expected != []
    G = make_group("P432")
    first = normal_translation_subgroups(G, 54)
    expected = list(first)
    first.clear()
    assert normal_translation_subgroups(G, 54) == expected != []


def test_warm_survey_answer_copies_no_row():
    # the stored rows carry the total index, so a warm answer is a slice of them:
    # P622 to 9,999 has 21,699 rows, and a new tuple per row would take about 2.4 MB
    G = make_group("P622")
    rows = normal_translation_subgroups(G, 9_999)
    tracemalloc.start()
    try:
        again = normal_translation_subgroups(G, 9_999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == rows and all(a is b for a, b in zip(again, rows))
    assert peak < 500_000


def _clear_survey_caches():
    for f in vars(sublattices).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


def _stored_rows(G):
    return _survey(G.T0, _coord_rotations(G.T0, _rotation_generators(G)), G.frame.name).rows


_GROWING_BOUNDS = (1, 37, 128, 129, 256)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_growing_survey_gives_every_bound_the_same_rows(name):
    # the stored survey grows to the largest bound asked; a smaller bound reads its first rows.
    # 128 = 2⁷ and 129 = 3·43 cut inside the chain of 2-power parts, which the walk
    # from 128 to 129 passes only on the way to 129
    G = make_group(name)
    runs = []
    for bounds in (_GROWING_BOUNDS, _GROWING_BOUNDS[::-1]):
        _clear_survey_caches()
        runs.append({b: normal_translation_subgroups(G, b) for b in bounds})
        # one stored row per lattice found, none for an index without one
        assert len(_stored_rows(G)) == len(runs[-1][256])
    assert runs[0] == runs[1]
    answers = runs[0]
    for a, b in combinations(_GROWING_BOUNDS, 2):
        head = [row for row in answers[b] if row[2] <= G.point_order * a]
        assert answers[a] == head == answers[b][: len(head)]


def test_growing_survey_under_concurrent_callers():
    # more threads than cores grow one stored survey at once; a lost or doubled update
    # would leave a row count or an answer that differs from the one-thread survey
    G = make_group("P622")
    expected = {b: normal_translation_subgroups(G, b) for b in (16, 48, 96, 128)}
    _clear_survey_caches()
    answers, errors = [], []

    def ask(bounds):
        try:
            answers.extend((b, normal_translation_subgroups(G, b)) for b in bounds)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(order,)) for order in permutations((16, 48, 96, 128), 4)][:6]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert len(answers) == 24 and all(rows == expected[b] for b, rows in answers)
    assert len(_stored_rows(G)) == len(expected[128])


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_survey_matches_the_per_index_route(name):
    G = make_group(name)
    _clear_survey_caches()
    rows = normal_translation_subgroups(G, 64)
    assert rows == [
        (L, match_family(L, G.frame), G.point_order * d)
        for d in range(1, 65)
        for L in invariant_sublattices(G.T0, _rotation_generators(G), d)
    ]


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_survey_rows_match_the_per_lattice_route(name):
    # the oracle maps and matches each lattice alone; the survey builds an index's rows in one pass
    G = make_group(name)
    expected = survey_rows_by_lattice(G, 2000)
    assert normal_translation_subgroups(G, 2000) == expected
    rots = _rotation_generators(G)
    for d in range(1, 300):
        lattices = [L for L, _, total in expected if total == G.point_order * d]
        assert invariant_sublattices(G.T0, rots, d) == lattices


def test_lattice_equality_across_constructions():
    # hnf, instantiate and _from_t0_hnf give equal records for equal lattices, unequal otherwise
    for name in GROUP_NAMES:
        G = make_group(name)
        rows = normal_translation_subgroups(G, 64)
        for L, fam, _ in rows:
            built = (
                hnf(L.vectors()),
                fam.instantiate(),
                _from_t0_hnf(G.T0, relative_integer_basis(L, G.T0)),
                SubgroupHNF(L.basis, L.den),
            )
            assert all(M == L and hash(M) == hash(L) for M in built)
        lattices = [L for L, _, _ in rows]
        assert all(a != b for i, a in enumerate(lattices) for b in lattices[:i])
    # the same basis over another D, and another basis over the same D
    body = instantiate("CUBIC_BODY", 1)
    assert SubgroupHNF(body.basis, 1) != body
    assert instantiate("CUBIC_BODY", 3) != instantiate("CUBIC_PRIMITIVE", 3)
    assert body != body.basis


def test_warm_survey_compares_no_fraction(monkeypatch):
    # P432 and P4_232 share T0 and their rotations, so a warm lookup compares two equal T0
    groups = [make_group(name) for name in GROUP_NAMES]
    cold = [normal_translation_subgroups(G, 256) for G in groups]
    calls = []
    eq = Fraction.__eq__
    monkeypatch.setattr(Fraction, "__eq__", lambda a, b: calls.append((a, b)) or eq(a, b))
    assert [normal_translation_subgroups(G, 256) for G in groups] == cold
    assert calls == []


# ============================================================
# index prime to |P|: the closed form against the descent
# ============================================================

_PRIMES_3_61 = [p for p in range(3, 62) if all(p % q for q in range(2, int(p**0.5) + 1))]
ROT_2_DIAG = ((0, -1, 0), (-1, 0, 0), (0, 0, -1))  # half-turn about (1, -1, 0), cubic frame

# (T0, rotations, |P|, character norm) of classes the closed form splits: the six
# groups, then T = 23, D3 = 32 about a body diagonal, whose ℤ³ ∩ ℓ ⊕ ℤ³ ∩ W has
# index 3 in ℤ³, D4 = 422 on the face-centred T2, and D3 in the hexagonal frame
_SPLIT_CLASSES = [
    *((G.T0, _rotation_generators(G), G.point_order, 1 if G.frame.name == "CUBIC" else 2) for G in map(make_group, GROUP_NAMES)),
    (Z3, (ROT_XYZ, ROT_Z), 12, 1),
    (Z3, (ROT_XYZ, ROT_2_DIAG), 6, 2),
    (T2, (ROT_4, ROT_Y), 8, 2),
    (Z3, (ROT_OMEGA, ROT_Y_HEX), 6, 2),
]


def _recording(monkeypatch, names):
    """Replace sublattices functions by wrappers that record their argument tuples, keyed by name."""
    calls = {name: [] for name in names}
    for name in names:
        f = getattr(sublattices, name)
        monkeypatch.setattr(sublattices, name, lambda *args, f=f, name=name: calls[name].append(args) or f(*args))
    return calls


@pytest.mark.parametrize("t0, rots, order, norm", _SPLIT_CLASSES, ids=[*GROUP_NAMES, "T", "D3", "D4_T2", "D3_hex"])
def test_closed_form_equals_the_descent(monkeypatch, t0, rots, order, norm):
    # at every prime p ∤ |P| up to 61 (p = 3 only for D4) and every k ≤ 3
    coord_rots = _coord_rotations(t0, rots)
    split = sublattices._split(coord_rots)
    assert (split.order, split.norm, sum(dim for dim, _ in split.parts)) == (order, norm, 3)
    closed = {}
    descent = _recording(monkeypatch, ["_descent_p_power"])
    for p in _PRIMES_3_61:
        for k in (1, 2, 3):
            if order % p:
                closed[p, k] = sublattices._invariant_p_power.__wrapped__(coord_rots, p, k)
    # the closed form never enters the descent, which stays callable as the reference
    assert descent["_descent_p_power"] == []
    for (p, k), got in closed.items():
        assert len(got) == len(set(got)) and set(got) == set(sublattices._descent_p_power(coord_rots, p, k)), (p, k)
    assert any(closed.values())


@pytest.mark.parametrize("rots", [(ROT_XYZ,), (ROT_4,), (ROT_6,), (ROT_Y, ROT_Z)], ids=["3", "4", "6", "D2"])
def test_classes_without_a_split_take_the_descent(monkeypatch, rots):
    # one 3-, 4- or 6-fold rotation or D2 leaves ℚ³ with character norm 3: no closed form
    coord_rots = _coord_rotations(Z3, rots)
    split = sublattices._split(coord_rots)
    assert split.norm == 3 and split.parts == ()
    descent = _recording(monkeypatch, ["_descent_p_power"])
    got = [sublattices._invariant_p_power.__wrapped__(coord_rots, p, 1) for p in (7, 61)]
    assert descent["_descent_p_power"] == [(coord_rots, 7, 1), (coord_rots, 61, 1)]
    assert got == [sublattices._descent_p_power(coord_rots, p, 1) for p in (7, 61)]


def test_cold_survey_descends_only_at_2_and_3(monkeypatch):
    # 2 and 3 divide |P| = 24 or 12; every other prime is read off the split
    _clear_survey_caches()
    at = {"_roots_of_unity_12": 0, "_splitting_order": 1, "_maximal_steps": 1}
    calls = _recording(monkeypatch, list(at))
    for name in GROUP_NAMES:
        normal_translation_subgroups(make_group(name), 256)
    assert {name: {args[i] for args in calls[name]} for name, i in at.items()} == {name: {2, 3} for name in at}
    monkeypatch.undo()
    # one order per rotation class and prime: P432 and P4_232 share a class, and so do I4_132 and I432
    assert sublattices._splitting_order.cache_info().currsize == 8


def test_split_rejects_a_component_that_is_not_invariant(monkeypatch):
    coord_rots = _coord_rotations(Z3, HEX_ROTS)
    monkeypatch.setattr(sublattices, "rotation_axis", lambda g: (1, 0, 0))
    with pytest.raises(InvariantViolation):
        sublattices._split.__wrapped__(coord_rots)


# ============================================================
# the walk over prime powers and the descent once per primitive lattice
# ============================================================


def _times(c, M):
    return tuple(tuple(c * x for x in col) for col in M)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_descent_of_a_multiple_is_the_scaled_descent(name):
    # the rotations act on c·M as on M, so the steps run from c·M itself are c times those from M:
    # a descent that steps from every lattice as it is gives the one that steps from primitive ones
    G = make_group(name)
    coord_rots = _coord_rotations(G.T0, _rotation_generators(G))
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for p in (2, 3):
        steps = sublattices._maximal_steps.__wrapped__
        levels = [{identity}]
        for k in range(1, 9 if p == 2 else 6):  # every M of index up to 256
            reached = {N for j in range(1, min(k, 3) + 1) for M in levels[k - j] for s, N in steps(coord_rots, p, M) if s == j}
            assert reached == set(sublattices._descent_p_power(coord_rots, p, k)), (p, k)
            levels.append(reached)
        for M in set().union(*levels):
            of_M = steps(coord_rots, p, M)
            for c in (p, 5):
                assert steps(coord_rots, p, _times(c, M)) == tuple((s, _times(c, N)) for s, N in of_M), (p, M, c)
            # and the planes of p·M are its invariant sublattices of index p, by brute force
            of_pM = [N for s, N in steps(coord_rots, p, _times(p, M)) if s == 1]
            literal = literal_invariant_sublattices(hnf(_times(p, M)), coord_rots, p)
            assert sorted(of_pM) == sorted(L.basis for L in literal), (p, M)


def test_cold_survey_takes_the_action_of_primitive_lattices_only(monkeypatch):
    _clear_survey_caches()
    calls = _recording(monkeypatch, ["_maximal_steps"])
    for name in GROUP_NAMES:
        normal_translation_subgroups(make_group(name), 256)
    assert calls["_maximal_steps"]
    assert all(math.gcd(*(x for col in M for x in col)) == 1 for _, _, M in calls["_maximal_steps"])
    # 31 lattices per rotation class take the action; 60 when every lattice of the descent took its own
    assert len({(rots, M) for rots, _, M in calls["_maximal_steps"]}) <= 31
    monkeypatch.undo()
    # one cache entry per primitive lattice and prime: the 31, and T0 of each of the four
    # rotation classes once more at its second prime; 64 when every lattice kept its own
    assert sublattices._maximal_steps.cache_info().currsize <= 35


@pytest.mark.parametrize("rots, listings", [((), 1), ((ROT_Y, ROT_Z), 2)], ids=["scalar", "D2"])
def test_a_step_lists_the_lines_only_where_one_can_be_maximal(monkeypatch, rots, listings):
    # a dual eigenspace of two or more dimensions meets every plane v^⊥, so each invariant line
    # lies in an invariant plane: a scalar action lists only the normals, p² + p + 1 of them
    coord_rots = _coord_rotations(Z3, rots)
    calls = _recording(monkeypatch, ["_invariant_lines"])
    steps = sublattices._maximal_steps.__wrapped__(coord_rots, 7, Z3.basis)
    assert len(calls["_invariant_lines"]) == listings
    assert {s for s, _ in steps} == {1}
    assert sorted(N for _, N in steps) == sorted(L.basis for L in literal_invariant_sublattices(Z3, rots, 7))
    assert len(steps) == (57 if rots == () else 3)


def _cubic_family_rows(bound):
    """The P432 survey to a bound in closed form: n·ℤ³, the face-centred n·T2 and the body-centred 2n lattices."""
    rows = []
    for tag, u, step in (("CUBIC_PRIMITIVE", 1, 1), ("CUBIC_FACE", 1, 2), ("CUBIC_BODY", 2, 4)):
        n = 1
        while step * n**3 <= bound:
            rows.append((step * n**3, LatticeFamily(tag, u * n)))
            n += 1
    rows.sort(key=lambda row: row[0])  # n³, 2n³ and 4n³ never coincide
    return [(fam.instantiate(), fam, 24 * d) for d, fam in rows]


def test_survey_at_a_large_cubic_bound_walks_only_primes_that_carry_a_part(monkeypatch):
    # p ∤ 24 carries a cubic part only at p³, p⁶, ...: the walk reads no prime past 10³
    G = make_group("P432")
    _clear_survey_caches()
    calls = _recording(monkeypatch, ["_invariant_p_power"])
    rows = normal_translation_subgroups(G, 10**9)
    assert rows == _cubic_family_rows(10**9)
    asked = {p for _, p, _ in calls["_invariant_p_power"]}
    assert asked == {p for p in range(2, 1001) if all(p % q for q in range(2, math.isqrt(p) + 1))}
    assert all(k % 3 == 0 for _, p, k in calls["_invariant_p_power"] if p > 3)
    # one index alone: 5² cannot carry a part, so 5²·7³ has no lattice and no part is looked up
    calls["_invariant_p_power"].clear()
    assert invariant_sublattices(Z3, CUBIC_ROTS, 5**2 * 7**3) == []
    assert 5 not in {p for _, p, _ in calls["_invariant_p_power"]}


def test_cubic_survey_allocates_nothing_in_proportion_to_the_bound():
    # 520 lattices to 10⁷ take about 0.5 MB; a sieve or any table over the indices would take 10 MB or more
    G = make_group("P432")
    _clear_survey_caches()
    tracemalloc.start()
    try:
        rows = normal_translation_subgroups(G, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == _cubic_family_rows(10**7)
    assert peak < 1_500_000


def test_prime_stream_lists_the_primes_in_order():
    # segments [n, 2n) up to n = 2¹¹, each sieved by the primes below √(2n)
    stream = sublattices._primes()
    got = [next(stream) for _ in range(700)]
    assert got == [p for p in range(2, got[-1] + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def test_walk_rejects_prime_powers_out_of_order():
    # a level ends at the first prime that overshoots, which is sound only for ascending least indices
    coord_rots = _coord_rotations(Z3, HEX_ROTS)
    with pytest.raises(InvariantViolation, match="order"):
        list(sublattices._walk(coord_rots, [(3, range(1, 2)), (2, range(1, 2))], 0, 6))
    assert dict(sublattices._walk(coord_rots, [(2, range(1, 2)), (3, range(1, 2))], 5, 6)).keys() == {6}
