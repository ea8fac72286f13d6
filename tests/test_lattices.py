"""Canonical subgroup algebra, checked against closed-form and brute-force oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torsym.errors import InvariantViolation, NotASubgroup, RankDeficient
from torsym.lattices import (
    TRIVIAL_SUBGROUP,
    SubgroupHNF,
    _from_t0_hnfs,
    coord_numerators,
    covolume,
    frame_coords_matrix,
    from_numerators,
    hnf,
    hnf_columns,
    hnf_reduce,
    index,
    int_matvec,
    invariant_coords_matrix,
    is_subgroup,
    join,
    adjugate,
    as_int,
    mat_det,
    matmul,
    member,
    primitive_integer,
    relative_coordinates,
    relative_integer_basis,
    smith_form,
    solve_congruence,
    unimodular_inverse,
)
from torsym.spacegroups import GROUP_NAMES, ROT_XYZ, ROT_Y, ROT_Z, make_group, stabilizer, stabilizer_order

from oracles import (
    _from_t0_coords,
    basis_matrix,
    coords_in,
    coords_matrix,
    coset_reps,
    dual,
    fraction_index,
    fraction_is_subgroup,
    fraction_member,
    from_coords,
    intersect,
    mat,
    mat_inv,
    matvec,
    outcome,
    reduce_mod,
    smith_form_by_block_scan,
    solve_linear,
    subgroup_hnf_by_column_loop,
    vec,
)

# the standard cubic lattices with closed-form membership oracles
T1 = hnf([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
T2 = hnf([(2, 0, 0), (1, 1, 0), (1, 0, 1)])
T4 = hnf([(2, 0, 0), (0, 2, 0), (1, 1, 1)])
THALF = hnf([(1, 0, 0), (0, 1, 0), (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))])


def in_T2(v) -> bool:
    fr = [Fraction(x) for x in v]
    return all(x.denominator == 1 for x in fr) and sum(fr) % 2 == 0


def in_T4(v) -> bool:
    fr = [Fraction(x) for x in v]
    if any(x.denominator != 1 for x in fr):
        return False
    a, b, c = (int(x) % 2 for x in fr)
    return a == b == c


def in_Thalf(v) -> bool:
    w = [Fraction(x) * 2 for x in v]
    if any(x.denominator != 1 for x in w):
        return False
    a, b, c = (int(x) % 2 for x in w)
    return a == b == c


BOX4 = [vec(*t) for t in itertools.product(range(-4, 5), repeat=3)]
HALF_GRID = [
    (Fraction(a, 2), Fraction(b, 2), Fraction(c, 2))
    for a, b, c in itertools.product(range(-6, 7), repeat=3)
]


# ============================================================
# matrix helpers
# ============================================================


def test_mat_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        m = mat([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
        if mat_det(m) == 0:
            continue
        assert matmul(m, mat_inv(m)) == mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_mat_inv_of_integer_matrices_is_exact():
    m = ((2, 1, 0), (1, 1, 0), (0, 0, -1))
    inv = mat_inv(m)
    assert all(type(x) is int for row in inv for x in row)
    assert matmul(m, inv) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    # any other integer matrix gets an exact rational inverse, never floats
    half = mat_inv(((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert half[0][0] == Fraction(1, 2) and type(half[0][0]) is Fraction


_INT_MATRICES = st.tuples(*[st.tuples(*[st.integers(min_value=-9, max_value=9)] * 3)] * 3)


@given(_INT_MATRICES)
def test_adjugate_agrees_with_the_rational_inverse(m):
    # m·adj(m) = adj(m)·m = det(m)·I, so adj(m) = det(m)·m⁻¹ where m is invertible
    d, adj = mat_det(m), adjugate(m)
    scalar = tuple(tuple(d * (i == j) for j in range(3)) for i in range(3))
    assert matmul(m, adj) == matmul(adj, m) == scalar
    if d:
        assert adj == tuple(tuple(d * x for x in row) for row in mat_inv(m))
    # the unimodular inverse is exact in ints and round-trips; any other determinant is refused
    if d in (1, -1):
        inv = unimodular_inverse(m)
        assert all(type(x) is int for row in inv for x in row)
        assert matmul(m, inv) == matmul(inv, m) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert unimodular_inverse(inv) == m
    else:
        with pytest.raises(InvariantViolation, match="unimodular"):
            unimodular_inverse(m)


@pytest.mark.parametrize("x", [2, -3, 2.0, Fraction(4, 2), True])
def test_as_int_takes_what_equals_an_int(x):
    assert as_int(x) == x and type(as_int(x)) is int


@pytest.mark.parametrize("x", [1.5, Fraction(1, 2), "1", math.inf, -math.inf, math.nan, None, [1]])
def test_as_int_refuses_what_equals_no_int(x):
    with pytest.raises(ValueError):
        as_int(x)


_NOT_FINITE = [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("x", _NOT_FINITE)
def test_hnf_refuses_a_coordinate_that_is_not_finite(x):
    with pytest.raises(ValueError):
        hnf([(1, 0, 0), (0.5, x, 0)])


@pytest.mark.parametrize("x", _NOT_FINITE)
def test_member_refuses_a_coordinate_that_is_not_finite(x):
    with pytest.raises(ValueError):
        member((0.5, x, 0), T1)


@pytest.mark.parametrize("x", _NOT_FINITE)
def test_coord_numerators_refuses_a_coordinate_that_is_not_finite(x):
    with pytest.raises(ValueError):
        coord_numerators((0.5, x, 0), THALF)


@pytest.mark.parametrize("x", _NOT_FINITE)
def test_primitive_integer_refuses_a_coordinate_that_is_not_finite(x):
    with pytest.raises(ValueError):
        primitive_integer((0.5, x, 0))


def test_solve_linear_consistent_and_inconsistent():
    a = mat([[1, 2, 0], [0, 0, 1], [1, 2, 1]])
    sol = solve_linear(a, (3, 5, 8))
    assert sol is not None
    part, kernel = sol
    assert matvec(a, part) == vec(3, 5, 8)
    assert len(kernel) == 1
    assert matvec(a, kernel[0]) == vec(0, 0, 0)
    assert solve_linear(a, (3, 5, 9)) is None


def test_primitive_integer():
    assert primitive_integer((Fraction(1, 2), Fraction(-1, 2), 0)) == (1, -1, 0)
    assert primitive_integer((-2, 0, 4)) == (1, 0, -2)
    with pytest.raises(ValueError):
        primitive_integer((0, 0, 0))


# ============================================================
# canonical HNF construction and membership
# ============================================================


def test_hnf_trivial_and_identity():
    assert hnf([]) == TRIVIAL_SUBGROUP
    assert hnf([(0, 0, 0)]) == TRIVIAL_SUBGROUP
    assert T1.rank == 3
    assert T1.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert T1.den == 1


def test_subgroup_hnf_rejects_non_canonical_forms():
    # each rejected pair names a lattice that hnf writes differently, so it
    # would compare unequal to the same lattice built by hnf
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    doubled = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    bad = [
        (doubled, 2),  # D shares the factor 2 with the content: that is hnf(I)
        (((2, 0, 0), (0, 4, 0), (0, 0, 6)), 6),
        (((0, 0, 1), (0, 1, 0), (1, 0, 0)), 1),  # pivot rows descend
        (((1, 0, 0), (0, -1, 0), (0, 0, 1)), 1),  # negative pivot
        (((1, 2, 0), (0, 2, 0), (0, 0, 1)), 1),  # entry left of a pivot outside [0, pivot)
        (((1, 0, 0), (0, 0, 0)), 1),  # zero column
        (((1, 0, 0), (0, 1, 0), (0, 0, Fraction(1))), 1),  # non-int entry
        (((1, 0, 0), (0, 1, 0), (0, 0, 1.0)), 1),
        ((*identity, (0, 0, 1)), 1),  # a fourth column
        (list(identity), 1),  # a list would compare unequal to hnf's tuple
        (((1, 0, 0), [0, 1, 0], (0, 0, 1)), 1),
        (identity, 0),  # D is not a positive int
        (identity, -2),
        (identity, 2.0),
        (identity, Fraction(2)),
        (identity, Fraction(1, 2)),
    ]
    for basis, den in bad:
        with pytest.raises(ValueError):
            SubgroupHNF(basis, den)
    assert SubgroupHNF(doubled, 1) == hnf([(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    assert SubgroupHNF(((1, 1, 1), (0, 2, 0), (0, 0, 2)), 2) == THALF
    assert SubgroupHNF((), 1) == TRIVIAL_SUBGROUP


def test_subgroup_hnf_rejects_a_bool_scale():
    # True == 1 would pass as D = 1, then equal and hash as hnf's lattice
    with pytest.raises(ValueError):
        SubgroupHNF(((1, 0, 0), (0, 1, 0), (0, 0, 1)), True)
    assert SubgroupHNF(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 1).to_json()["scale"] == "1"


_entry = st.integers(min_value=-6, max_value=6)
# what a basis entry or a den may be instead of a positive int
_NOT_AN_INT = [True, False, 1.0, 2.0, Fraction(1), Fraction(1, 2), [1], "1", None]


@st.composite
def _record_arguments(draw) -> tuple:
    """A (basis, den) pair: a canonical basis of rank 0 to 3 times a content k, with up to three faults.

    A fault sets an entry of column j in a row below j to 0 or to the pivot
    of its row, −1, +0 or +1, so next to a pivot bound; makes a pivot zero
    or negative; puts in an entry that is not an int; makes a column a list
    or of length 2 or 4; adds or drops a column, so from 0 to 4 or more
    columns; or makes the basis a list.  The den may share a factor with k.
    """
    k = draw(st.integers(min_value=1, max_value=4))
    cols = [[k * x for x in col] for col in hnf_columns(draw(st.lists(st.tuples(_entry, _entry, _entry), max_size=5)))]
    lists = set()  # the columns, and "basis", to give as lists
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        fault = draw(st.sampled_from(["bound", "pivot", "entry", "list", "short", "long", "extra", "drop", "basis"]))
        j = draw(st.integers(min_value=0, max_value=max(len(cols) - 1, 0)))
        i = draw(st.integers(min_value=0, max_value=2))
        if fault == "extra":
            cols.append(list(draw(st.tuples(_entry, _entry, _entry))))
        elif fault == "basis":
            lists.add("basis")
        elif j < len(cols) and len(cols[j]) == 3:
            if fault == "bound":
                i = max(i, min(j + 1, 2))
                pivot = next((c[i] for c in cols if len(c) == 3 and type(c[i]) is int and c[i] > 0 and not any(c[:i])), 1)
                cols[j][i] = draw(st.sampled_from([0, pivot])) + draw(st.sampled_from([-1, 0, 1]))
            elif fault == "pivot":
                cols[j][min(j, 2)] = draw(st.sampled_from([0, -1, -k]))
            elif fault == "entry":
                cols[j][i] = draw(st.sampled_from(_NOT_AN_INT))
            elif fault == "list":
                lists.add(j)
            elif fault == "short":
                cols[j].pop()
            elif fault == "long":
                cols[j].append(0)
            else:
                cols[j:] = cols[j + 1 :]
    basis = [col if j in lists else tuple(col) for j, col in enumerate(cols)]
    den = draw(st.one_of(st.just(1), st.integers(min_value=1, max_value=12), st.sampled_from([0, -1, *_NOT_AN_INT])))
    return (basis if "basis" in lists else tuple(basis)), den


@st.composite
def _rank3_with_one_fault(draw) -> tuple:
    """A canonical rank-3 basis over den 1 with one entry changed: to 0 or ±1, to the pivot of its row −1, +0
    or +1 (next to that pivot's bound), to minus that pivot, or to a bool, float or Fraction."""
    a, d, f = (draw(st.integers(min_value=1, max_value=6)) for _ in range(3))
    cols = [[a, draw(st.integers(min_value=0, max_value=d - 1)), draw(st.integers(min_value=0, max_value=f - 1))]]
    cols += [[0, d, draw(st.integers(min_value=0, max_value=f - 1))], [0, 0, f]]
    j, i = draw(st.integers(min_value=0, max_value=2)), draw(st.integers(min_value=0, max_value=2))
    p = cols[i][i]
    cols[j][i] = draw(st.sampled_from([-1, 0, 1, p - 1, p, p + 1, -p, True, 1.0, Fraction(p)]))
    return tuple(map(tuple, cols)), 1


@settings(max_examples=1000)
@given(st.one_of(_record_arguments(), _rank3_with_one_fault()))
@example((((1, 2, 0), (0, 2, 0), (0, 0, 1)), 1))  # an entry left of a pivot at its bound
@example((((1, -1, 0), (0, 2, 0), (0, 0, 1)), 1))
@example((((1, 0, 0), (0, 1, 0), (0, 0, 1)), True))
@example((((2, 0, 0), (0, 2, 0), (0, 0, 2)), 2))
def test_record_checks_as_the_column_loop_does(args):
    # the straight-line rank-3 test accepts exactly the bases that the loop over the columns accepts, and
    # every rejected pair, of any rank and with any number of faults, raises as the loop does
    assert outcome(SubgroupHNF, *args) == outcome(subgroup_hnf_by_column_loop, *args)


@given(
    st.lists(st.tuples(_entry, _entry, _entry), max_size=4),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=6),
)
def test_record_gives_scale_covolume_and_hash_from_basis_and_den(cols, D, k):
    # a content-free HNF times a k prime to D is a canonical basis over D
    basis = hnf_columns(cols)
    assume(basis and math.gcd(k, D) == 1)
    g = math.gcd(*(x for col in basis for x in col))
    basis = tuple(tuple(k * x // g for x in col) for col in basis)
    L = SubgroupHNF(basis, D)
    assert (L.rank, L.basis, L.den) == (len(basis), basis, D)
    assert L.to_json() == {"rank": len(basis), "scale": str(Fraction(1, D)), "basis": [list(c) for c in basis]}
    assert hash(L) == hash((L.basis, L.den))
    assert L == hnf(L.vectors())
    if L.rank == 3:
        assert covolume(L) == Fraction(basis[0][0] * basis[1][1] * basis[2][2], D**3)
    else:
        with pytest.raises(RankDeficient):
            covolume(L)


def test_hnf_idempotent_and_presentation_independent():
    alt = hnf([(1, 1, 0), (1, -1, 0), (0, 1, 1), (3, 3, 0)])
    assert alt == T2
    assert hnf(T2.vectors()) == T2


@given(st.lists(st.tuples(*[st.integers(min_value=-6, max_value=6)] * 3), max_size=5))
def test_hnf_integer_generators_match_rational_ones(gens):
    # all-int generators skip the Fraction conversion; the result, den type included, is the same
    as_fractions = [tuple(Fraction(x) for x in g) for g in gens]
    assert repr(hnf(gens)) == repr(hnf(as_fractions))


def test_member_against_parity_oracles():
    for v in BOX4:
        assert member(v, T2) == in_T2(v)
        assert member(v, T4) == in_T4(v)
    for v in HALF_GRID:
        assert member(v, THALF) == in_Thalf(v)


def test_member_body_centre():
    assert member((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), THALF)
    assert not member((Fraction(1, 2), Fraction(1, 2), 0), THALF)


@given(st.permutations(range(4)))
def test_hnf_canonical_under_generator_shuffle(perm):
    gens = [(2, 1, 0), (0, 3, 1), (1, 1, 1), (4, 0, 2)]
    shuffled = [gens[i] for i in perm]
    assert hnf(shuffled) == hnf(gens)


@given(
    st.lists(
        st.tuples(*[st.integers(min_value=-5, max_value=5)] * 3),
        min_size=3,
        max_size=3,
    ),
    st.tuples(*[st.integers(min_value=-4, max_value=4)] * 3),
)
@settings(max_examples=150)
def test_member_agrees_with_exact_coefficient_solving(gens, coeffs):
    g = mat(list(zip(*gens)))  # the generators as columns
    if mat_det(g) == 0:
        return
    lat = hnf(gens)
    point = matvec(g, coeffs)
    assert member(point, lat)
    for v in [(1, 0, 0), (2, -1, 3), (0, 0, 5), (-6, 6, -6)]:
        x = matvec(mat_inv(g), v)
        assert member(v, lat) == all(c.denominator == 1 for c in x)


@given(st.permutations(range(5)))
def test_hnf_canonical_with_rational_generators(perm):
    gens = [
        (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
        (1, 0, 0),
        (0, 1, 0),
        (Fraction(3, 2), Fraction(1, 2), Fraction(1, 2)),
        (0, 0, 1),
    ]
    shuffled = [gens[i] for i in perm]
    assert hnf(shuffled) == THALF


def test_rank_deficient_subgroups_are_first_class():
    plane = hnf([(1, 0, 0), (0, 1, 0)])
    assert plane.rank == 2
    assert member((5, -3, 0), plane)
    assert not member((0, 0, 1), plane)
    line = hnf([(0, 0, 7)])
    assert line.rank == 1
    assert join(plane, line).rank == 3
    assert join(plane, line) == hnf([(1, 0, 0), (0, 1, 0), (0, 0, 7)])


# ============================================================
# index, join, cosets
# ============================================================


def test_index_examples():
    assert index(T1, T1) == 1
    assert index(T2, T1) == 2
    assert index(T4, T1) == 4
    assert index(T1, THALF) == 2
    for n in range(1, 5):
        tn = hnf([(n, 0, 0), (0, n, 0), (0, 0, n)])
        assert index(tn, T1) == n**3


def test_index_rejects_a_fractional_covolume_ratio(monkeypatch):
    # a typed error, not an assert, so the check also runs under python -O:
    # THALF ⊄ T1 passed off as a subgroup leaves the covolume ratio 1/2
    import torsym.lattices as lattices

    monkeypatch.setattr(lattices, "is_subgroup", lambda sub, sup: True)
    with pytest.raises(InvariantViolation):
        index(THALF, T1)


def test_index_by_residue_counting():
    # independent oracle: count residue classes of grid vectors under reduction
    for sub, sup in [(T2, T1), (T4, T1), (T4, THALF), (T1, THALF)]:
        reps = set()
        for v in HALF_GRID:
            if member(v, sup):
                rep, _ = reduce_mod(v, sub)
                reps.add(rep)
        assert len(reps) == index(sub, sup)


def test_index_multiplicative_on_chains():
    chain = [
        THALF,
        T1,
        T4,
        hnf([(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
        hnf([(4, 0, 0), (0, 4, 0), (2, 2, 2)]),
    ]
    for i in range(len(chain) - 2):
        a, b, c = chain[i + 2], chain[i + 1], chain[i]
        assert index(a, c) == index(a, b) * index(b, c)


def test_index_errors():
    with pytest.raises(NotASubgroup):
        index(T1, T2)
    with pytest.raises(RankDeficient):
        index(hnf([(1, 0, 0)]), T1)


_small = st.integers(-4, 4)


@st.composite
def canonical_subgroups(draw):
    """A canonical subgroup of rank 0–3 from up to three columns over a denominator in 1–12."""
    cols = draw(st.lists(st.tuples(_small, _small, _small), max_size=3))
    den = draw(st.integers(1, 12))
    return hnf([tuple(Fraction(x, den) for x in c) for c in cols])


def _outcome(f, *args):
    try:
        return f(*args)
    except (InvariantViolation, NotASubgroup, RankDeficient) as exc:
        return type(exc)


@given(
    sup=canonical_subgroups(),
    other=canonical_subgroups(),
    coeffs=st.lists(st.tuples(_small, _small, _small), max_size=3),
    v=st.tuples(_small, _small, _small),
    vden=st.integers(1, 12),
)
# outside by divisibility: the scale 1/2 of THALF does not divide into ℤ³
@example(sup=T1, other=THALF, coeffs=[], v=(1, 1, 1), vden=2)
# outside by a nonzero reduction: ℤ³ is integral but reduces to nonzero by T2's HNF
@example(sup=T2, other=T1, coeffs=[], v=(1, 0, 0), vden=1)
@settings(max_examples=300)
def test_integer_predicates_agree_with_the_fraction_oracles(sup, other, coeffs, v, vden):
    # `inside` is contained in sup by construction; `other` is drawn on its own
    gens = sup.vectors()
    inside = hnf([tuple(sum(k * g[i] for k, g in zip(row, gens)) for i in range(3)) for row in coeffs])
    assert is_subgroup(inside, sup) and fraction_is_subgroup(inside, sup)
    for sub in (inside, other):
        assert is_subgroup(sub, sup) == fraction_is_subgroup(sub, sup)
        assert _outcome(index, sub, sup) == _outcome(fraction_index, sub, sup)
        for w in sub.vectors():
            assert member(w, sup) == fraction_member(w, sup)
    w = tuple(Fraction(x, vden) for x in v)
    assert member(w, sup) == fraction_member(w, sup)


def test_the_sublattice_predicates_build_no_fraction(monkeypatch):
    # rank-3 lattices at scales 1/2 and 1/6, contained and not
    sub = hnf([(Fraction(1, 3), 1, 0), (0, Fraction(2, 3), 0), (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))])
    sup = hnf([(Fraction(1, 6), 0, 0), (0, Fraction(1, 6), 0), (0, 0, Fraction(1, 2))])
    cases = [(sub, sup), (THALF, T1), (T1, T2), (T4, THALF)]
    points = [w for a, _ in cases for w in a.vectors()]
    calls = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    verdicts = [is_subgroup(a, b) for a, b in cases]
    indices = [_outcome(index, a, b) for a, b in cases]
    memberships = [member(w, b) for w in points for _, b in cases]
    assert calls == []
    assert verdicts == [True, False, False, True]
    assert indices == [8, NotASubgroup, NotASubgroup, 8]  # covolumes 1/9 over 1/72, then 1 over 1/8
    assert any(memberships) and not all(memberships)
    # the wrapper does count: the Fraction oracle builds its vectors
    fraction_is_subgroup(sub, sup)
    assert calls


def test_join_examples():
    assert join(T1, TRIVIAL_SUBGROUP) == T1
    assert join(T2, T2) == T2
    assert join(T2, T4) == T1
    assert join(T1, THALF) == THALF


def test_join_basis_vectors_are_small_generator_combinations():
    # brute-force certificate that the join is generated by the inputs
    cases = [(T2, T4), (T2, THALF), (hnf([(2, 1, 0), (0, 1, 1), (1, 0, 2)]), T4)]
    for a, b in cases:
        gens = a.vectors() + b.vectors()
        j = join(a, b)
        reachable = set()
        for coeffs in itertools.product(range(-2, 3), repeat=len(gens)):
            s = (Fraction(0), Fraction(0), Fraction(0))
            for c, g in zip(coeffs, gens):
                s = (s[0] + c * g[0], s[1] + c * g[1], s[2] + c * g[2])
            reachable.add(s)
        for v in j.vectors():
            assert v in reachable


def test_join_contains_both_arguments():
    rng = random.Random(3)
    for _ in range(20):
        a = hnf([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        b = hnf([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        j = join(a, b)
        assert is_subgroup(a, j) and is_subgroup(b, j)
        if a.rank == 3:
            assert covolume(j) <= covolume(a)


def test_coset_reps_counts_and_incongruence():
    for sub, sup in [(T1, T1), (T2, T1), (T4, T1), (T4, THALF), (T1, THALF)]:
        reps = coset_reps(sub, sup)
        assert len(reps) == index(sub, sup)
        seen = set()
        for r in reps:
            assert member(r, sup)
            canon, _ = reduce_mod(r, sub)
            assert canon not in seen
            seen.add(canon)


def test_coset_reps_errors():
    with pytest.raises(NotASubgroup):
        coset_reps(T1, T2)
    with pytest.raises(RankDeficient):
        coset_reps(hnf([(1, 0, 0)]), T1)


@given(
    cols=st.lists(st.tuples(*[st.integers(-5, 5)] * 3), min_size=1, max_size=4),
    den=st.integers(1, 6),
    k=st.integers(-3, 3),
)
def test_equal_lattices_hash_equal(cols, den, k):
    # the same lattice from two generating sets: the second adds k times the first column to the others
    a = hnf([tuple(Fraction(x, den) for x in c) for c in cols])
    shifted = [cols[0]] + [tuple(x + k * y for x, y in zip(c, cols[0])) for c in cols[1:]]
    b = hnf([tuple(Fraction(x, den) for x in c) for c in shifted])
    assert a == b and hash(a) == hash(b)
    assert {a: "found"}[b] == "found"


def test_subgroup_hash_does_not_hash_its_fraction_scale(monkeypatch):
    # the lookups of the survey caches hash T0 on every call
    lat = make_group("I4_132").T0

    def refuse(self):
        raise AssertionError("Fraction.__hash__ called")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    assert hash(lat) == hash(SubgroupHNF(lat.basis, lat.den))


def test_relative_integer_basis_and_reduction():
    rel = relative_integer_basis(T4, T1)
    assert len(rel) == 3
    assert rel[0][0] * rel[1][1] * rel[2][2] == 4
    seen = set()
    for v in itertools.product(range(-3, 4), repeat=3):
        seen.add(hnf_reduce(v, rel))
    assert len(seen) == 4


_t0_coord = st.integers(min_value=-5, max_value=5)


@given(
    st.sampled_from(GROUP_NAMES),
    st.lists(st.tuples(_t0_coord, _t0_coord, _t0_coord), min_size=3, max_size=3),
    st.integers(min_value=2, max_value=6),
)
@settings(max_examples=150)
def test_relative_integer_basis_matches_fraction_inverse(name, cols, k):
    # the reference takes sub's vectors through the Fraction inverse of T0's basis matrix
    T0 = make_group(name).T0
    assume(hnf(cols).rank == 3)
    sub = _from_t0_coords(T0, cols)
    inv = mat_inv(basis_matrix(T0))
    coords = [matvec(inv, v) for v in sub.vectors()]
    assert all(x.denominator == 1 for c in coords for x in c)
    expected = hnf_columns([[int(x) for x in c] for c in coords])
    assert relative_integer_basis(sub, T0) == expected == hnf_columns(cols)
    # the coordinate 1/k in T0's basis puts a vector outside T0
    outside = hnf(sub.vectors() + [from_coords((Fraction(1, k), 0, 0), T0)])
    with pytest.raises(NotASubgroup):
        relative_integer_basis(outside, T0)
    with pytest.raises(RankDeficient):
        relative_integer_basis(hnf(sub.vectors()[:2]), T0)


@pytest.mark.parametrize("name", GROUP_NAMES)
@given(st.lists(st.tuples(_t0_coord, _t0_coord, _t0_coord), max_size=4))
@settings(max_examples=60)
def test_triangular_frame_step_matches_a_full_hnf(name, cols):
    # the reference reduces H·M from scratch and divides by g = gcd(q, content) over D = q/g
    T0 = make_group(name).T0
    M = hnf_columns(cols)
    h = tuple(zip(*T0.basis))
    q = T0.den
    ref = hnf_columns([int_matvec(h, col) for col in M])
    g = math.gcd(q, *(x for col in ref for x in col))
    expected = SubgroupHNF(tuple(tuple(x // g for x in col) for col in ref), q // g)
    assert _from_t0_hnfs(T0, [M]) == [expected]
    assert _from_t0_coords(T0, cols) == expected


# ============================================================
# duality and intersection
# ============================================================


def test_dual_involution_and_known_pairs():
    assert dual(T1) == T1
    # the body-centred and doubled face-centred cubic lattices are dual
    assert dual(THALF) == T2
    assert dual(T2) == THALF
    rng = random.Random(11)
    for _ in range(15):
        lat = hnf([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        if lat.rank != 3:
            continue
        assert dual(dual(lat)) == lat


def test_intersect_against_membership_oracle():
    rng = random.Random(5)
    cases = [(T2, T4), (T2, THALF), (T4, THALF)]
    for _ in range(10):
        a = hnf([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        b = hnf([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        if a.rank == 3 and b.rank == 3:
            cases.append((a, b))
    for a, b in cases:
        cap = intersect(a, b)
        for v in BOX4:
            assert member(v, cap) == (member(v, a) and member(v, b))
        assert covolume(cap) * covolume(join(a, b)) == covolume(a) * covolume(b)


def test_intersect_known_values():
    assert intersect(T2, T4) == hnf([(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    assert intersect(T1, THALF) == T1


# ============================================================
# coordinates and reduction
# ============================================================


def test_reduce_mod_roundtrip():
    rng = random.Random(13)
    for _ in range(40):
        v = vec(
            Fraction(rng.randint(-20, 20), rng.choice([1, 2, 4])),
            Fraction(rng.randint(-20, 20), rng.choice([1, 2, 4])),
            Fraction(rng.randint(-20, 20), rng.choice([1, 2, 4])),
        )
        for lat in (T1, T2, T4, THALF):
            rep, _ = reduce_mod(v, lat)
            back = coords_in(rep, lat)
            assert all(0 <= c < 1 for c in back)
            diff = (v[0] - rep[0], v[1] - rep[1], v[2] - rep[2])
            assert member(diff, lat)


def test_integer_coordinates_agree_with_rational_matrices():
    # coords_in, from_coords and reduce_mod work over one common denominator;
    # the reference is the plain Fraction product with the basis and its inverse
    rng = random.Random(29)

    def rational():
        return Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 4, 6, 8, 12]))

    for name in ("I432", "I4_132", "P622"):
        lat = make_group(name).T0
        basis = basis_matrix(lat)
        inv = mat_inv(basis)
        for _ in range(60):
            v = (rational(), rational(), rational())
            c = matvec(inv, v)
            assert coords_in(v, lat) == c
            assert from_coords(v, lat) == matvec(basis, v)
            k = tuple(math.floor(x) for x in c)
            rep = matvec(basis, tuple(x - f for x, f in zip(c, k)))
            assert reduce_mod(v, lat) == (rep, k)
        ints = (3, -5, 7)
        assert coords_in(ints, lat) == matvec(inv, ints)
        assert from_coords(ints, lat) == matvec(basis, ints)


def test_coords_matrix_is_integral_exactly_on_invariant_maps():
    for name in ("I432", "I4_132", "P622"):
        G = make_group(name)
        basis = basis_matrix(G.T0)
        inv = mat_inv(basis)
        for c in G.cosets:
            assert coords_matrix(c.rot, G.T0) == matmul(inv, matmul(mat(c.rot), basis))
    # a shear does not preserve the body-centred lattice
    shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    assert coords_matrix(shear, make_group("I432").T0) is None
    with pytest.raises(ValueError):
        invariant_coords_matrix(shear, make_group("I432").T0)


@st.composite
def rank3_subgroups(draw):
    """A rank-3 canonical subgroup: the HNF of three integer columns at a scale 1/D in 1–12."""
    cols = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * 3), min_size=3, max_size=3))
    den = draw(st.integers(1, 12))
    L = hnf([tuple(Fraction(x, den) for x in c) for c in cols])
    assume(L.rank == 3)
    return L


_rational = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_maps = st.sampled_from((ROT_Y, ROT_Z, ROT_XYZ, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))) | _INT_MATRICES


@given(
    L=rank3_subgroups(),
    v=st.tuples(_rational, _rational, _rational),
    m=_maps,
    coeffs=st.lists(st.tuples(_small, _small, _small), max_size=3),
    other=canonical_subgroups(),
)
@example(L=THALF, v=(Fraction(1, 2), 0, 0), m=ROT_XYZ, coeffs=[(1, 0, 0), (0, 1, 0)], other=T1)  # rank 2 inside
@example(L=T2, v=(0, 0, 0), m=ROT_Y, coeffs=[], other=hnf([(1, 0, 0), (0, 1, 0)]))  # rank 2 outside
@settings(max_examples=200)
def test_the_basis_change_kernels_match_the_fraction_inverse(L, v, m, coeffs, other):
    # the reference is the Fraction basis matrix B = H/q of L and its inverse
    B = basis_matrix(L)
    inv = mat_inv(B)
    # coord_numerators is B⁻¹·v in lowest terms, and from_numerators takes it back to v
    n, d = coord_numerators(v, L)
    assert d > 0 and math.gcd(d, *n) == 1
    assert tuple(Fraction(x, d) for x in n) == matvec(inv, v)
    assert from_numerators(n, d, L) == tuple(v)
    # frame_coords_matrix is B⁻¹·m·B where that is integral, and None otherwise
    ref = matmul(inv, matmul(mat(m), B))
    got = frame_coords_matrix(m, L.basis)
    if all(x.denominator == 1 for row in ref for x in row):
        assert got == ref and all(type(x) is int for row in got for x in row)
    else:
        assert got is None
    # relative_coordinates refuses a subgroup exactly when one of its columns lies off L;
    # `inside`, of rank 0 to 3, is spanned by integer combinations of L's basis
    inside = hnf([tuple(sum(k * b[i] for k, b in zip(row, L.vectors())) for i in range(3)) for row in coeffs])
    for sub in (inside, other):
        coords = [matvec(inv, w) for w in sub.vectors()]
        if all(x.denominator == 1 for c in coords for x in c):
            assert relative_coordinates(sub, L) == coords
        else:
            with pytest.raises(NotASubgroup):
                relative_coordinates(sub, L)


_V2 = "expected a 3-vector, got (1, 2)"
_V4 = "expected a 3-vector, got (1, 2, 3, 4)"
_F0 = "Fraction(0, 1)"

# each wrong-shape call and the message that names its input, as the boundary reads it
_MALFORMED = {
    "coord_numerators-2": (lambda G: coord_numerators((1, 2), G.T0), _V2),
    "coord_numerators-4": (lambda G: coord_numerators((1, 2, 3, 4), G.T0), _V4),
    "from_numerators-2": (lambda G: from_numerators((1, 2), 1, G.T0), _V2),
    "from_numerators-4": (lambda G: from_numerators((1, 2, 3, 4), 1, G.T0), _V4),
    "stabilizer-2": (lambda G: stabilizer((0, 0), G), f"expected a 3-vector, got ({_F0}, {_F0})"),
    "stabilizer-4": (lambda G: stabilizer((0, 0, 0, 0), G), f"expected a 3-vector, got ({_F0}, {_F0}, {_F0}, {_F0})"),
    "stabilizer_order-2": (lambda G: stabilizer_order((0, 0), G), "expected a 3-vector, got (0, 0)"),
    "invariant_coords_matrix-2x2": (
        lambda G: invariant_coords_matrix(((1, 0), (0, 1)), G.T0),
        "expected a 3×3 matrix, got ((1, 0), (0, 1))",
    ),
    "invariant_coords_matrix-3x2": (
        lambda G: invariant_coords_matrix(((1, 0), (0, 1), (0, 0)), G.T0),
        "expected a 3×3 matrix, got ((1, 0), (0, 1), (0, 0))",
    ),
    "frame_coords_matrix-4x3": (
        lambda G: frame_coords_matrix(((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)), G.T0.basis),
        "expected a 3×3 matrix, got ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))",
    ),
}


@pytest.mark.parametrize("name", ["P432", "I4_132"])
@pytest.mark.parametrize("call, message", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_a_vector_or_matrix_of_the_wrong_shape_is_a_value_error(name, call, message):
    # the boundary names a short or long input rather than failing to unpack it as a 3-vector
    with pytest.raises(ValueError) as e:
        call(make_group(name))
    assert str(e.value) == message


# each reads a point through one boundary; the stabilizer reads it as Fractions first
_POINT_READERS = {
    "member": (lambda v, G: member(v, G.T0), tuple),
    "coord_numerators": (lambda v, G: coord_numerators(v, G.T0), tuple),
    "stabilizer": (stabilizer, lambda v: tuple(map(Fraction, v))),
    "stabilizer_order": (stabilizer_order, tuple),
    "hnf": (lambda v, G: hnf([(1, 0, 0), v]), tuple),
}


# (0, 0, 0, 5) would pass for the zero vector if only its first three entries were read
@pytest.mark.parametrize("v", [(), (1, 2), (1, Fraction(1, 2), 0, 1), (0, 0, 0, 5)], ids=["length-0", "length-2", "length-4", "zero-length-4"])
@pytest.mark.parametrize("call, read", _POINT_READERS.values(), ids=_POINT_READERS.keys())
def test_a_point_of_any_length_but_three_is_named_in_its_value_error(v, call, read):
    # the boundary names the point rather than failing to unpack it
    with pytest.raises(ValueError) as e:
        call(v, make_group("I4_132"))
    assert str(e.value) == f"expected a 3-vector, got {read(v)!r}"


_PLANE = hnf([(1, 0, 0), (0, 1, 0)])
_RANK_DEFICIENT = {
    "coord_numerators": lambda L: coord_numerators((1, 0, 0), L),
    "from_numerators": lambda L: from_numerators((1, 0, 0), 1, L),
    "invariant_coords_matrix": lambda L: invariant_coords_matrix(ROT_Z, L),
    "relative_coordinates": lambda L: relative_coordinates(_PLANE, L),
}


@pytest.mark.parametrize("L", [_PLANE, TRIVIAL_SUBGROUP], ids=["rank-2", "rank-0"])
@pytest.mark.parametrize("call", _RANK_DEFICIENT.values(), ids=_RANK_DEFICIENT.keys())
def test_coordinates_in_a_subgroup_of_rank_below_three_are_rank_deficient(L, call):
    with pytest.raises(RankDeficient):
        call(L)


# ============================================================
# Smith normal form and congruences modulo Z^3
# ============================================================

small_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda rows: st.lists(
        st.tuples(*[st.integers(min_value=-4, max_value=4)] * 3), min_size=rows, max_size=rows
    )
)

# the shapes the package solves: k×3 systems with k ≤ 12, and the 3×1 columns of `_axis_basis`
smith_inputs = st.one_of(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda rows: st.lists(
            st.tuples(*[st.integers(min_value=-6, max_value=6)] * 3), min_size=rows, max_size=rows
        )
    ),
    st.lists(st.tuples(st.integers(min_value=-6, max_value=6)), min_size=3, max_size=3),
)


@given(smith_inputs)
@settings(max_examples=300)
def test_smith_form_is_a_unimodular_diagonalisation(m):
    def product(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    def det(a):
        a = [[Fraction(x) for x in row] for row in a]
        out = Fraction(1)
        for c in range(len(a)):
            p = next((i for i in range(c, len(a)) if a[i][c]), None)
            if p is None:
                return 0
            if p != c:
                a[c], a[p], out = a[p], a[c], -out
            out *= a[c][c]
            for i in range(c + 1, len(a)):
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
        return out

    u, diag, v = smith_form(m)
    assert product(product(u, m), v) == [
        [diag[i] if i == j and i < len(diag) else 0 for j in range(len(m[0]))] for i in range(len(m))
    ]
    # the invariants are those of the block-scan oracle
    assert diag == smith_form_by_block_scan(m)[1]
    assert all(d > 0 for d in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
    assert abs(det(u)) == 1 and abs(det(v)) == 1


@given(
    small_matrices,
    st.lists(st.integers(min_value=0, max_value=3), min_size=6, max_size=6),
)
@settings(max_examples=150)
def test_solve_congruence_matches_grid_search(m, nums):
    r = [Fraction(x, 2) for x in nums[: len(m)]]
    points, top, kernel = solve_congruence(m, nums[: len(m)], 2)
    points = [tuple(Fraction(x, top) for x in p) for p in points]
    for k in kernel:
        assert all(sum(a * b for a, b in zip(row, k)) == 0 for row in m)
    # every solution lies in a finite grid once the kernel directions are fixed at 0
    _, diag, _ = smith_form(m)
    if kernel or math.prod(diag) > 12:
        return
    grid = 2 * math.prod(diag)

    def solves(y):
        return all(
            (sum(a * b for a, b in zip(row, y)) - x).denominator == 1 for row, x in zip(m, r)
        )

    found = {
        y
        for y in itertools.product([Fraction(i, grid) for i in range(grid)], repeat=3)
        if solves(y)
    }
    assert {tuple(x % 1 for x in p) for p in points} == found
    assert len(points) == len(found)


@pytest.mark.parametrize("den", [0, -1, -6])
def test_solve_congruence_refuses_a_den_below_one(den):
    # den = 0 would give top = 0 and one point
    with pytest.raises(ValueError, match="den must be a positive integer"):
        solve_congruence([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [1, 0, 0], den)
