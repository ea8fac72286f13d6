"""Sublattice enumeration, invariance filtering and family matching."""

import contextlib
import gc
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
from itertools import combinations, permutations, product
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from torsym.errors import InvariantViolation, NotASubgroup, RankDeficient, TorsymError, UnmatchedLattice
from torsym.lattices import (
    TRIVIAL_SUBGROUP,
    SubgroupHNF,
    _from_t0_hnfs,
    covolume,
    frame_coords_matrix,
    hnf,
    hnf_columns,
    hnf_product,
    index,
    is_subgroup,
    relative_integer_basis,
)
from torsym.spacegroups import (
    CUBIC_FRAME,
    Frame,
    GROUP_NAMES,
    HEX_FRAME,
    ROT_OMEGA,
    ROT_XY,
    ROT_XYZ,
    ROT_Y,
    ROT_Y_HEX,
    ROT_Z,
    ROT_Z_HEX,
    T_HALF,
    Isometry,
    SpaceGroup,
    _closure,
    make_group,
)
import torsym
from torsym import cli, sublattices
from torsym.classify import classify_case
from torsym.sublattices import (
    CUBIC_TAGS,
    FAMILY_TAGS,
    HEX_TAGS,
    LatticeFamily,
    _coord_rotations,
    _coprime_meet,
    _family_table,
    _prime_power_parts,
    _rotation_generators,
    _closed_form_rows,
    _walked_rows,
    instantiate,
    invariant_sublattices,
    match_family,
    normal_translation_subgroups,
)

from oracles import (
    _from_t0_coords,
    coords_matrix,
    enumerate_sublattices,
    fixed_lines_by_enumeration,
    from_coords,
    instantiate_by_generators,
    intersect,
    is_invariant,
    lattice_family_by_index_checks,
    literal_invariant_sublattices,
    maximal_steps_by_enumeration,
    outcome,
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


# family parameters: small ints about the bound n ≥ 1, and values that are not ints
_PARAMETERS = st.one_of(st.integers(min_value=-1, max_value=4), st.sampled_from([True, False, 2.0, 2.5, Fraction(2), "3", None, [2]]))


@settings(max_examples=300)
@given(st.sampled_from([*FAMILY_TAGS, "CUBIC_DIAGONAL", "hex_rot", None, ["HEX_ROT"]]), _PARAMETERS, _PARAMETERS)
@example("HEX_ROT", 1, 0)
@example("CUBIC_FACE", True, None)
def test_family_record_checks_as_the_index_checks_do(tag, n, m):
    # the inline test of each parameter accepts what `_check_index` accepts, and a rejected family raises as it does
    assert outcome(LatticeFamily, tag, n, m) == outcome(lattice_family_by_index_checks, tag, n, m)
    if m is None:
        assert outcome(LatticeFamily, tag, n) == outcome(lattice_family_by_index_checks, tag, n)


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


@given(st.sampled_from(FAMILY_TAGS), st.integers(1, 10**4), st.integers(1, 10**4))
@example("CUBIC_BODY", 9_999, 1)
@example("CUBIC_BODY", 10**4, 1)
@example("HEX_ROT", 10**4, 10**4)
def test_instantiate_equals_the_hnf_of_the_family_generators(tag, n, m):
    # the unit table scaled against each family's generator list written out, odd and even body-centred n alike
    m = m if tag in HEX_TAGS else None
    assert instantiate(tag, n, m) == instantiate_by_generators(tag, n, m)


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
    # a composite index meets its prime-power parts (`_coprime_meet`): D2 and one 3-fold
    # rotation take every part from the descent, D3 those at p ≥ 5 from the closed form
    for rots in ((ROT_Y, ROT_Z), (ROT_XYZ,), (ROT_XYZ, ROT_2_DIAG)):
        for d in range(4, 49):
            if any(d % q == 0 for q in range(2, d)):
                lit = literal_invariant_sublattices(Z3, rots, d)
                assert invariant_sublattices(Z3, rots, d) == lit, (rots, d)
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
ROT_2_DIAG = ((0, -1, 0), (-1, 0, 0), (0, 0, -1))  # half-turn about (1, -1, 0), cubic frame


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
def test_coprime_meet_matches_intersect(pair):
    A, B = pair
    C = _coprime_meet(A, B)
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


def test_an_index_with_a_large_cofactor_is_refused_not_factored():
    # trial division stops at 10⁶: the Mersenne prime 2⁶¹ − 1 is refused at once instead of
    # trial-divided to its square root, while every index up to 10¹² still factors, such as
    # the largest prime below 10¹² and a product of two primes either side of 10⁶
    start = time.perf_counter()
    with pytest.raises(TorsymError, match=r"index 2305843009213693951: .*10\*\*6"):
        invariant_sublattices(Z3, CUBIC_ROTS, 2**61 - 1)
    assert time.perf_counter() - start < 1
    assert invariant_sublattices(Z3, CUBIC_ROTS, 999_999_999_989) == []
    assert _prime_power_parts(999_983 * 1_000_003) == [(999_983, 1), (1_000_003, 1)]


def _is_prime(n: int) -> bool:
    """Miller–Rabin to the bases 2, 3, …, 17, which is exact for n below 3·10¹⁴."""
    bases = (2, 3, 5, 7, 11, 13, 17)
    if n < 2 or any(n % q == 0 for q in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        for _ in range(s):
            if x in (1, n - 1):
                break
            x = x * x % n
        else:
            return False
    return True


@given(st.integers(1, 10**12) | st.lists(st.sampled_from((2, 3, 5, 7, 999_983, 1_000_003)), max_size=6).map(math.prod).filter(lambda d: d <= 10**12))
@example(2**39)
@example(999_983**2)
@example(999_999_999_989)
def test_the_prime_power_parts_multiply_back_to_the_index(d):
    # trial division by 2 and then the odd numbers only: every part is a prime power, the primes ascend
    parts = _prime_power_parts(d)
    assert math.prod(p**k for p, k in parts) == d
    assert all(_is_prime(p) and k >= 1 for p, k in parts)
    assert [p for p, _ in parts] == sorted({p for p, _ in parts})


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
    # near misses: each shares a unit's first pivot and den (the body-centred unit over 2, the face-centred
    # unit, the rotated hexagonal unit) and differs from it below a pivot, so only the whole basis refuses it
    near_misses = [
        (SubgroupHNF(((1, 1, 0), (0, 2, 0), (0, 0, 2)), 2), CUBIC_FRAME),
        (SubgroupHNF(((1, 0, 1), (0, 1, 0), (0, 0, 2)), 1), CUBIC_FRAME),
        (SubgroupHNF(((1, 1, 0), (0, 3, 0), (0, 0, 1)), 1), HEX_FRAME),
    ]
    for L, frame in near_misses:
        with pytest.raises(UnmatchedLattice):
            match_family(L, frame)


def test_an_unknown_frame_name_is_refused():
    # each frame name maps to its own families; any other name was once read as hexagonal
    frame = Frame("cubic", CUBIC_FRAME.gram)
    with pytest.raises(ValueError, match="^unknown frame 'cubic'"):
        match_family(Z3, frame)
    with pytest.raises(ValueError, match="^unknown frame 'cubic'"):
        _family_table(Z3, "cubic")
    with pytest.raises(ValueError, match="^unknown frame 'cubic'"):
        normal_translation_subgroups(make_group("P432")._replace(frame=frame), 8)


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
    # the descent and the family table are cached, so a caller's edit must not reach the next answer
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


def test_a_survey_keeps_no_row_after_its_caller_drops_it():
    # P622 to 9,999 has 21,699 rows, about 9 MB: once the classification built from them is dropped,
    # none of them may stay behind
    classify_case("P622", "beta", 16)  # the group's marked edges and family table, cached once
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert classify_case("P622", "beta", 9_999)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert kept < 500_000


def _clear_survey_caches():
    for f in vars(sublattices).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


_GROWING_BOUNDS = (1, 37, 128, 129, 256)
_ROUTES = (normal_translation_subgroups, _walked_rows)


@pytest.mark.parametrize("route", _ROUTES, ids=["closed-form", "per-index"])
@pytest.mark.parametrize("name", GROUP_NAMES)
def test_each_bound_reads_the_head_of_a_larger_bounds_rows(name, route):
    # a smaller bound's rows are the first rows of a larger one's, asked in either order, also where
    # 128 = 2⁷ and 129 = 3·43 cut between two indices of different primes
    G = make_group(name)
    runs = []
    for bounds in (_GROWING_BOUNDS, _GROWING_BOUNDS[::-1]):
        _clear_survey_caches()
        runs.append({b: route(G, b) for b in bounds})
    assert runs[0] == runs[1]
    answers = runs[0]
    for a, b in combinations(_GROWING_BOUNDS, 2):
        head = [row for row in answers[b] if row[2] <= G.point_order * a]
        assert answers[a] == head == answers[b][: len(head)]


_COLD_300: dict[str, list] = {}


@given(
    st.sampled_from(GROUP_NAMES),
    st.lists(st.integers(1, 300), min_size=2, max_size=4, unique=True).map(sorted),
)
def test_bounds_raised_in_turn_read_the_cold_rows(name, bounds):
    # on both routes every bound, a smaller one asked again after a larger included, reads exactly
    # the first rows of the cold per-index route's rows to 300
    G = make_group(name)
    if name not in _COLD_300:
        _clear_survey_caches()
        _COLD_300[name] = _walked_rows(G, 300)
    cold = _COLD_300[name]

    def head(b):
        return [row for row in cold if row[2] <= G.point_order * b]

    _clear_survey_caches()
    for k, b in enumerate(bounds):
        for a in bounds[: k + 1][::-1]:
            assert [route(G, a) for route in _ROUTES] == [head(a)] * 2
    # one row per lattice, and rows at exactly the d ≤ b that have a lattice
    rows, rots = head(bounds[-1]), _rotation_generators(G)
    assert len({L for L, _, _ in rows}) == len(rows)
    found = {total // G.point_order for _, _, total in rows}
    assert found == {d for d in range(1, bounds[-1] + 1) if invariant_sublattices(G.T0, rots, d)}


def test_concurrent_callers_get_the_one_thread_rows():
    # more threads than cores ask both routes at once from cold kernel caches, which they share;
    # a kernel entry half filled by one thread would give another an answer unlike the one-thread rows
    G = make_group("P622")
    expected = {(route, b): route(G, b) for route in _ROUTES for b in (16, 48, 96, 128)}
    _clear_survey_caches()
    answers, errors = [], []

    def ask(bounds):
        try:
            answers.extend(((route, b), route(G, b)) for b in bounds for route in _ROUTES)
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
    assert len(answers) == 48 and all(rows == expected[key] for key, rows in answers)


# ============================================================
# the closed-form survey against the second route
# ============================================================

_WALKED_3000: dict[str, list] = {}


def _walked_to_3000(G):
    """The second route's rows of one of the six groups to index 3,000, computed once per group."""
    if G.name not in _WALKED_3000:
        _WALKED_3000[G.name] = _walked_rows(G, 3000)
    return _WALKED_3000[G.name]


@settings(max_examples=40)
@given(st.sampled_from(GROUP_NAMES), st.lists(st.integers(1, 3000), min_size=1, max_size=4))
@example("P622", [16, 19])  # the one bound raise of demos/full_census.py
@example("P622", [2999, 48, 3000])
@example("I432", [3000, 1, 2999])
@example("I4_132", [7, 64, 256])
def test_closed_form_survey_equals_the_walk(name, bounds):
    # row for row and in order, at bounds raised and lowered in the order drawn: each answer is the
    # second route's rows to its bound
    G = make_group(name)
    walked = _walked_to_3000(G)
    _clear_survey_caches()

    def head(b):
        return [row for row in walked if row[2] <= G.point_order * b]

    for b in bounds:
        assert normal_translation_subgroups(G, b) == head(b)


_CUBES = st.tuples(st.sampled_from((1, 2, 4, 8, 16, 32)), st.integers(1, 100)).map(lambda ck: ck[0] * ck[1] ** 3)


def _closed_form_equals_the_enumeration_at(name, d):
    # the closed form's rows of index d against the lattices the prime-power parts give, matched one by one
    G = make_group(name)
    total, rots = G.point_order * d, _rotation_generators(G)
    closed = [row for row in _closed_form_rows(G, d) if row[2] == total]
    assert closed == [(L, match_family(L, G.frame), total) for L in invariant_sublattices(G.T0, rots, d)]


@settings(max_examples=60)
@given(st.sampled_from([n for n in GROUP_NAMES if n != "P622"]), _CUBES.filter(lambda d: d <= 10**6) | st.integers(1, 10**6))
@example("I4_132", 10**6)
@example("F4_132", 4 * 99**3)
def test_cubic_closed_form_at_one_index_equals_the_enumeration(name, d):
    # far past the bounds the second route is compared at: one index d ≤ 10⁶, often i₁·k³, which has lattices
    _closed_form_equals_the_enumeration_at(name, d)


@settings(max_examples=6)
@given(st.integers(1, 10**5))
@example(10**5)
@example(3 * 4 * 5 * 7)
def test_hexagonal_closed_form_at_one_index_equals_the_enumeration(d):
    # one index d ≤ 10⁵ of P622, whose rows to d the closed form builds in time linear in d
    _closed_form_equals_the_enumeration_at("P622", d)


@settings(max_examples=60)
@given(st.sampled_from(GROUP_NAMES), st.integers(1, 10**4) | st.integers(1, 10**9))
@example("P622", 10**4)
@example("I432", 10**9)
def test_the_row_count_equals_the_rows_built(name, bound):
    # the count read off the family table before any row is built, against the rows themselves
    assume(name != "P622" or bound <= 10**4)
    G = make_group(name)
    assert sublattices._row_count(_family_table(G.T0, G.frame.name), bound) == len(_closed_form_rows(G, bound))


@given(st.integers(0, 10**6) | st.integers(0, 10**40), st.sampled_from((2, 3)))
@example(10**18, 3)
@example((10**6 + 1) ** 2 - 1, 2)
def test_the_integer_root_is_exact_up_to_its_cap(b, e):
    # the one k-range of the row count and of the rows: ⌊b^(1/e)⌋, or the cap _ROW_LIMIT + 1 when that is less
    k, cap = sublattices._root(b, e), sublattices._ROW_LIMIT + 1
    assert k**e <= b and k <= cap
    assert k == cap or b < (k + 1) ** e


def test_a_survey_past_the_row_limit_is_refused(monkeypatch):
    # at a limit of P622's row count to 20 those rows are built; a bound past it is refused, naming the
    # bound, the count and the limit
    G = make_group("P622")
    _clear_survey_caches()
    rows, over = _closed_form_rows(G, 20), len(_closed_form_rows(G, 21))
    monkeypatch.setattr(sublattices, "_ROW_LIMIT", len(rows))
    assert normal_translation_subgroups(G, 20) == rows
    message = f"^P622: the survey to index 21 counts at least {over} rows, past the limit of {len(rows)} rows$"
    with pytest.raises(TorsymError, match=message):
        normal_translation_subgroups(G, 21)


@pytest.mark.parametrize(
    "argv",
    [["table", "--max-genus", str(10**23)], ["classify", "P622", "beta", "--max-index", str(10**20)]],
    ids=["table", "classify"],
)
def test_an_oversize_bound_exits_2_before_any_row(argv, capsys):
    # counted, not built: both bounds once ran until memory gave out
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 5
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: \w+: the survey to index \d+ counts at least \d+ rows, past the limit of 1000000 rows\n", err)


_HALF = Fraction(1, 2)
_O = (*CUBIC_ROTS, ROT_XY)


def _record(name, frame, rots, translations):
    """A record through the coset closure of pure translations and rotations about the origin."""
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    gens = (*(Isometry(frame, identity, t) for t in translations), *(Isometry(frame, r, (0, 0, 0)) for r in rots))
    cosets, T0, maps = _closure(gens)
    return SpaceGroup(name, frame, gens, T0, len(cosets), tuple(cosets), maps)


# the frame's whole group on other lattices: u = 2, 3 or 4 for a cubic family, v = 2 or 3 on the hexagonal axis
_SCALED_RECORDS = [
    _record("P_2", CUBIC_FRAME, _O, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
    _record("F_3", CUBIC_FRAME, _O, [(6, 0, 0), (3, 3, 0), (3, 0, 3)]),
    _record("I_3", CUBIC_FRAME, _O, [(3, 0, 0), (0, 3, 0), (3 * _HALF, 3 * _HALF, 3 * _HALF)]),
    _record("HP_1_2", HEX_FRAME, HEX_ROTS, [(1, 0, 0), (0, 1, 0), (0, 0, 2)]),
    _record("HR_2_3", HEX_FRAME, HEX_ROTS, [(4, 2, 0), (2, 4, 0), (0, 0, 3)]),
]


@pytest.mark.parametrize("G", _SCALED_RECORDS, ids=lambda G: G.name)
def test_closed_form_equals_the_walk_on_scaled_lattices(G):
    assert _closed_form_rows(G, 300) == _walked_rows(G, 300) != []
    assert normal_translation_subgroups(G, 300) == _closed_form_rows(G, 300)


@pytest.mark.parametrize("G", [*map(make_group, GROUP_NAMES), *_SCALED_RECORDS], ids=lambda G: G.name)
def test_each_least_instance_is_its_unit_lattice_scaled(G):
    # L₁ is read off the family's unit lattice; the oracle builds it from the family's generators
    table = _family_table(G.T0, G.frame.name)
    assert sorted(table) == sorted(CUBIC_TAGS if G.frame.name == "CUBIC" else HEX_TAGS)
    # in report order: the indices ascend strictly
    indices = [i1 for *_, i1 in table.values()]
    assert indices == sorted(set(indices))
    for tag, (u, v, L1, i1) in table.items():
        assert L1 == instantiate_by_generators(tag, u, v)
        assert i1 == index(L1, G.T0)


@pytest.mark.parametrize(
    "G, ok_to, rows, fault",
    [
        (_record("P23", CUBIC_FRAME, CUBIC_ROTS, Z3.basis), 64, 9, None),  # T, |P| = 12: only the cubic lattices
        # C6 alone keeps the ideals of ℤ[ω] above a split prime, 7 = ππ̄, which no family holds
        (_record("P6", HEX_FRAME, (ROT_OMEGA, ROT_Z_HEX), Z3.basis), 6, 9, "covolume 7"),
        (_record("P321", HEX_FRAME, HEX_ROTS[:2], Z3.basis), 2, 2, "covolume 3"),  # D3: a rhombohedral lattice at 3
        (_record("P422", CUBIC_FRAME, (((0, -1, 0), (1, 0, 0), (0, 0, 1)), ROT_Y), Z3.basis), 1, 1, "covolume 2"),
        # the frame's whole group on a lattice that is no family instance: refused at index 1 on both routes
        (_record("P432_half", CUBIC_FRAME, _O, [(_HALF, 0, 0), (0, _HALF, 0), (0, 0, _HALF)]), 0, 0, "covolume 1/8"),
        (_record("P622_half", HEX_FRAME, HEX_ROTS, [(1, 0, 0), (0, 1, 0), (0, 0, _HALF)]), 0, 0, "covolume 1/2"),
    ],
    ids=["P23", "P6", "P321", "P422", "P432_half", "P622_half"],
)
def test_other_records_keep_the_walk_and_its_errors(G, ok_to, rows, fault):
    # a point group short of the frame's whole group takes the second route, and a lattice outside the
    # five families stops the survey with UnmatchedLattice at the first index that has one
    _clear_survey_caches()
    if ok_to:
        assert len(normal_translation_subgroups(G, ok_to)) == rows
        assert normal_translation_subgroups(G, ok_to) == _walked_rows(G, ok_to)
    if fault:
        with pytest.raises(UnmatchedLattice, match=f"^no closed-form family matches {re.escape(fault)}$"):
            normal_translation_subgroups(G, ok_to + 1)
        with pytest.raises(UnmatchedLattice, match=f"^no closed-form family matches {re.escape(fault)}$"):
            _walked_rows(G, ok_to + 1)


def test_one_index_meets_only_its_own_prime_power_parts(monkeypatch):
    # one CRT stage per prime of d: the lattices met so far against each lattice of the next part, the
    # first part taken as it is; walking every divisor of d took 88 meets at 30,030 and 98 at 44,100
    G = make_group("P622")
    rots = _rotation_generators(G)
    coord_rots = _coord_rotations(G.T0, rots)
    for d, meets in ((30030, 10), (44100, 42)):
        sizes = [len(sublattices._invariant_p_power(coord_rots, p, k)) for p, k in _prime_power_parts(d)]
        calls = _recording(monkeypatch, ["_coprime_meet"])
        got = invariant_sublattices(G.T0, rots, d)
        monkeypatch.undo()
        assert len(calls["_coprime_meet"]) == meets == sum(math.prod(sizes[: i + 1]) for i in range(1, len(sizes)))
        assert len(got) == math.prod(sizes)


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
    # hnf, instantiate and _from_t0_hnfs give equal records for equal lattices, unequal otherwise
    for name in GROUP_NAMES:
        G = make_group(name)
        rows = normal_translation_subgroups(G, 64)
        for L, fam, _ in rows:
            built = (
                hnf(L.vectors()),
                fam.instantiate(),
                *_from_t0_hnfs(G.T0, (relative_integer_basis(L, G.T0),)),
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
    # at every prime p ∤ |P| up to 61 (p = 3 only for D4) and every k ≤ 3, and k ≤ 6 at p = 5 and 7
    coord_rots = _coord_rotations(t0, rots)
    split = sublattices._split(coord_rots)
    assert (split.order, split.norm, sum(dim for dim, _ in split.parts)) == (order, norm, 3)
    closed = {}
    descent = _recording(monkeypatch, ["_descent_p_power"])
    for p in _PRIMES_3_61:
        for k in range(1, 7 if p in (5, 7) else 4):
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
    calls = _recording(monkeypatch, ["_maximal_steps"])
    for name in GROUP_NAMES:
        _walked_rows(make_group(name), 256)
    assert {p for _, p, _ in calls["_maximal_steps"]} == {2, 3}


def test_split_rejects_a_component_that_is_not_invariant(monkeypatch):
    coord_rots = _coord_rotations(Z3, HEX_ROTS)
    monkeypatch.setattr(sublattices, "rotation_axis", lambda g: (1, 0, 0))
    with pytest.raises(InvariantViolation):
        sublattices._split.__wrapped__(coord_rots)


# ============================================================
# the per-index kernel over prime powers and the descent once per primitive lattice
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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_preimages_of_planes_and_lines_are_the_hnf_of_their_generators(p):
    # every w ≢ 0 with entries in [−p, p): the plane w^⊥ and the line ⟨w⟩ of F_p³, lifted to ℤ³ in closed form
    pZ = [tuple(p * (i == j) for j in range(3)) for i in range(3)]
    for w in product(range(-p, p), repeat=3):
        if any(x % p for x in w):
            plane = [x for x in product(range(p), repeat=3) if sum(a * b for a, b in zip(w, x)) % p == 0]
            assert sublattices._annihilator(w, p) == hnf_columns([*plane, *pZ]), w
            assert sublattices._span(w, p) == hnf_columns([w, *pZ]), w


@st.composite
def _column_hnfs(draw):
    """A canonical integer column HNF with pivots in 1..4."""
    a, d, f = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    below = lambda pivot: draw(st.integers(min_value=0, max_value=pivot - 1))
    return ((a, below(d), below(f)), (0, d, below(f)), (0, 0, f))


_ENTRY = st.integers(min_value=-3, max_value=3)
# the cubic generators often preserve a lattice of small pivots; a random matrix seldom does
_MATRICES = st.sampled_from((ROT_Y, ROT_Z, ROT_XYZ, ROT_4)) | st.tuples(*[st.tuples(_ENTRY, _ENTRY, _ENTRY)] * 3)


@given(_column_hnfs(), _column_hnfs(), _MATRICES)
@example(((1, 1, 0), (0, 2, 0), (0, 0, 1)), ((2, 1, 1), (0, 2, 1), (0, 0, 2)), ROT_4)  # x ≡ y (mod 2): preserved
@example(((1, 0, 0), (0, 2, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ROT_4)  # y even: not preserved
def test_the_step_kernels_match_the_general_routes(M, K, r):
    # H·K reduced column by column against hnf_columns; H⁻¹·r·H by forward substitution against
    # the adjugate route adj(H)·r·H / det H, None on both routes when r does not preserve M
    H = tuple(zip(*M))
    assert hnf_product(M, K) == hnf_columns([tuple(sum(h * k for h, k in zip(row, col)) for row in H) for col in K])
    assert frame_coords_matrix(r, M) == coords_matrix(r, SubgroupHNF(M, 1))


@pytest.mark.parametrize(
    "rots, M",
    [
        ((ROT_4,), ((2, 0, 0), (0, 1, 0), (0, 0, 1))),  # a remainder in the first row
        ((ROT_4,), ((1, 0, 0), (0, 2, 0), (0, 0, 1))),  # in the second row only
        ((ROT_Y, ROT_XYZ), ((1, 0, 0), (0, 1, 0), (0, 0, 3))),  # in the third, and the first rotation keeps M
    ],
    ids=["first-row", "second-row", "third-row"],
)
def test_a_step_refuses_a_lattice_that_a_rotation_does_not_preserve(rots, M):
    # the action on M is H⁻¹·r·H for H its basis: a lattice that a rotation moves has no integer action
    moved = [r for r in rots if hnf_columns([*M, *(tuple(sum(x * y for x, y in zip(row, col)) for row in r) for col in M)]) != M]
    assert moved == [rots[-1]]
    with pytest.raises(InvariantViolation, match="a lattice of the descent is not invariant"):
        sublattices._maximal_steps.__wrapped__(rots, 2, M)


def test_cold_survey_takes_the_action_of_primitive_lattices_only(monkeypatch):
    _clear_survey_caches()
    calls = _recording(monkeypatch, ["_maximal_steps"])
    for name in GROUP_NAMES:
        _walked_rows(make_group(name), 256)
    assert calls["_maximal_steps"]
    assert all(math.gcd(*(x for col in M for x in col)) == 1 for _, _, M in calls["_maximal_steps"])
    # 31 lattices per rotation class take the action; 60 when every lattice of the descent took its own
    assert len({(rots, M) for rots, _, M in calls["_maximal_steps"]}) <= 31
    monkeypatch.undo()
    # one cache entry per primitive lattice and prime: the 31, and T0 of each of the four
    # rotation classes once more at its second prime; 64 when every lattice kept its own
    assert sublattices._maximal_steps.cache_info().currsize <= 35


def test_the_rotation_generators_are_distinct_without_the_identity_in_the_generators_order():
    gens = [SimpleNamespace(rot=r) for r in (ROT_Y, Z3.basis, ROT_XYZ, ROT_Z, ROT_Y, ROT_XYZ)]
    assert _rotation_generators(SimpleNamespace(generators=gens)) == (ROT_Y, ROT_XYZ, ROT_Z)


@pytest.mark.parametrize("rots, listings", [((), 1), ((ROT_Y, ROT_Z), 1)], ids=["scalar", "D2"])
def test_a_step_lists_the_lines_only_where_one_can_be_maximal(monkeypatch, rots, listings):
    # two normals give two invariant planes meeting in an invariant line L₀, and any other invariant
    # line L lies in the invariant plane L + L₀: a scalar action lists only the normals, p² + p + 1
    # of them, and D2 only its three normals
    coord_rots = _coord_rotations(Z3, rots)
    calls = _recording(monkeypatch, ["_fixed_lines"])
    steps = sublattices._maximal_steps.__wrapped__(coord_rots, 7, Z3.basis)
    assert len(calls["_fixed_lines"]) == listings
    assert {s for s, _ in steps} == {1}
    assert sorted(N for _, N in steps) == sorted(L.basis for L in literal_invariant_sublattices(Z3, rots, 7))
    assert len(steps) == (57 if rots == () else 3)


@st.composite
def _matrices_mod_p(draw):
    """(0–3 integer matrices with entries in −3..3, p): often scalar, zero or singular mod p."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    entry = st.integers(min_value=-3, max_value=3)
    acts = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(("any", "scalar", "zero", "singular")))
        if kind == "scalar":  # c·I mod p: the diagonal ≡ c and the rest ≡ 0
            c = draw(entry)
            a = [[draw(st.sampled_from([x for x in range(-3, 4) if (x - c * (i == j)) % p == 0])) for j in range(3)] for i in range(3)]
        elif kind == "zero":
            a = [[0] * 3 for _ in range(3)]
        else:
            a = [list(draw(st.tuples(entry, entry, entry))) for _ in range(3)]
            if kind == "singular":  # a repeated or zero row, so rank 1 or 2 over ℤ and mod p
                a[1] = draw(st.sampled_from((a[0], a[1], [0, 0, 0])))
                a[2] = draw(st.sampled_from((a[0], a[1], [0, 0, 0])))
        acts.append(tuple(map(tuple, a)))
    return tuple(acts), p


def _normalised(v, p):
    """The vector of ⟨v⟩ whose first nonzero entry is 1."""
    inv = pow(next(x for x in v if x % p), -1, p)
    return tuple(x * inv % p for x in v)


@given(_matrices_mod_p())
@example(((ROT_Y, ROT_Z), 7))  # three normals: the step lists no line
@example(((((1, 0, 0), (0, 2, 1), (0, 0, 2)),), 5))  # 1 ⊕ a Jordan block: exactly two normals, no line listed
@example(((((1, 1, 0), (0, 1, 1), (0, 0, 1)),), 5))  # one Jordan block: one normal, and its one line lies in the plane
@example(((((1, 1, 0), (0, 1, 0), (0, 0, 1)),), 5))  # a plane eigenspace of a matrix that is not scalar
@example(((((1, 0, 0), (0, 1, 0), (0, 0, 2)),), 5))
@example(((((1, 0, 0), (0, 0, -1), (0, 1, 0)),), 3))  # one normal and a maximal line
@example(((), 2))
def test_fixed_lines_and_steps_match_the_enumeration_of_every_line(acts_p):
    acts, p = acts_p
    for mats in (acts, tuple(tuple(zip(*a)) for a in acts)):
        got = [_normalised(v, p) for v in sublattices._fixed_lines(mats, p)]
        assert len(got) == len(set(got)) and set(got) == set(fixed_lines_by_enumeration(mats, p))
    # a step from ℤ³, where the matrices act as they are: every maximal submodule once, and the
    # action's lines listed exactly when the transposed action fixes at most one line
    with mock.patch.object(sublattices, "_fixed_lines", wraps=sublattices._fixed_lines) as listing:
        steps = sublattices._maximal_steps.__wrapped__(acts, p, Z3.basis)
    assert sorted(steps) == maximal_steps_by_enumeration(acts, p)
    normals = fixed_lines_by_enumeration([tuple(zip(*a)) for a in acts], p)
    assert listing.call_count == (2 if len(normals) <= 1 else 1)


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


def test_cubic_per_index_route_looks_up_only_exponents_that_carry_a_part(monkeypatch):
    # p ∤ 24 carries a cubic part only at p³, p⁶, ...: to 10⁴ no other power of such a prime is looked
    # up, and only the primes p ≤ 3 and those with p³ ≤ 10⁴ are asked at all
    G = make_group("P432")
    _clear_survey_caches()
    calls = _recording(monkeypatch, ["_invariant_p_power"])
    assert _walked_rows(G, 10**4) == _cubic_family_rows(10**4)
    assert {p for _, p, _ in calls["_invariant_p_power"]} == {2, 3, 5, 7, 11, 13, 17, 19}
    assert all(k % 3 == 0 for _, p, k in calls["_invariant_p_power"] if p > 3)


def test_an_exponent_that_carries_no_part_looks_up_none(monkeypatch):
    # one index alone: 5² cannot carry a part, so 5²·7³ has no lattice and no part is looked up
    calls = _recording(monkeypatch, ["_invariant_p_power"])
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

