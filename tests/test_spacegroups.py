"""Isometry records and their oracle arithmetic, the six group presentations, axes and stabilizers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsym.errors import ClosureOverflow, UnknownGroup
from torsym.lattices import hnf, member
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
    ROT_Z_HEX,
    _closure,
    canonical_group_name,
    make_group,
    stabilizer,
    stabilizer_order,
)

from oracles import (
    apply,
    canonical_line,
    compose,
    conjugate_translation,
    contains,
    fixed_axis,
    identity,
    inverse,
    mat,
    matvec,
    rotation_order,
    translation,
)


def rand_rational(rng, den=(1, 2, 3, 4, 6)):
    return Fraction(rng.randint(-12, 12), rng.choice(den))


def rand_vec(rng):
    return (rand_rational(rng), rand_rational(rng), rand_rational(rng))


# ============================================================
# isometry arithmetic
# ============================================================


def test_rejects_orientation_reversing():
    # the validity check is memoised per (frame, rot): a second construction must raise too
    for _ in range(2):
        with pytest.raises(ValueError):
            Isometry(CUBIC_FRAME, ((1, 0, 0), (0, 1, 0), (0, 0, -1)), (0, 0, 0))


def test_rejects_metric_breaking_rotation():
    # a cyclic axis permutation preserves the cubic metric but not the hexagonal one
    Isometry(CUBIC_FRAME, ROT_XYZ, (0, 0, 0))
    for _ in range(2):
        with pytest.raises(ValueError):
            Isometry(HEX_FRAME, ROT_XYZ, (0, 0, 0))


def test_rejects_wrong_shapes():
    # the shape is checked before the metric check indexes the rotation
    with pytest.raises(ValueError):
        Isometry(CUBIC_FRAME, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 2))
    with pytest.raises(ValueError):
        Isometry(CUBIC_FRAME, ((1, 0), (0, 1)), (0, 0, 0))


@pytest.mark.parametrize("entry", [1.5, Fraction(1, 2)], ids=["float", "Fraction"])
def test_rejects_non_integral_rotation_entries(entry):
    # int() would truncate 1.5 to 1 and 1/2 to 0; neither may pass as another rotation
    with pytest.raises(ValueError):
        Isometry(CUBIC_FRAME, ((entry, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))


def test_compose_apply_inverse_consistency():
    rng = random.Random(2)
    pool = [
        Isometry(CUBIC_FRAME, ROT_Y, (0, 1, 0)),
        Isometry(CUBIC_FRAME, ROT_Z, (Fraction(1, 2), 0, Fraction(3, 2))),
        Isometry(CUBIC_FRAME, ROT_XY, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))),
        Isometry(CUBIC_FRAME, ROT_XYZ, (1, 2, 3)),
    ]
    for _ in range(30):
        g = rng.choice(pool)
        h = rng.choice(pool)
        p = rand_vec(rng)
        assert apply(compose(g, h), p) == apply(g, apply(h, p))
        assert apply(inverse(g), apply(g, p)) == tuple(Fraction(x) for x in p)
    e = identity(CUBIC_FRAME)
    for g in pool:
        assert compose(g, e) == g
        assert compose(e, g) == g
        assert compose(g, inverse(g)) == e


def test_apply_known_values():
    r_xyz = Isometry(CUBIC_FRAME, ROT_XYZ, (0, 0, 0))
    assert apply(r_xyz, (1, 2, 3)) == (3, 1, 2)
    # the 120° vertical rotation maps the second hexagonal basis vector to the first
    r_om = Isometry(HEX_FRAME, ROT_OMEGA, (0, 0, 0))
    assert apply(r_om, (0, 1, 0)) == (1, 0, 0)


def test_rotation_orders():
    assert rotation_order(ROT_Y) == 2
    assert rotation_order(ROT_XY) == 2
    assert rotation_order(ROT_XYZ) == 3
    assert rotation_order(ROT_OMEGA) == 3
    # 6-fold: vertical rotation composed with the in-plane point inversion
    r6 = compose(
        Isometry(HEX_FRAME, ROT_OMEGA, (0, 0, 0)),
        Isometry(HEX_FRAME, ROT_Z_HEX, (0, 0, 0)),
    )
    assert rotation_order(r6.rot) == 6


@pytest.mark.parametrize("entry", [1.5, 0.9, None, "1"])
def test_rotation_order_refuses_an_entry_that_is_not_an_integer(entry):
    # int(e) would truncate 1.5 to 1 and answer 1, and raise TypeError for None
    with pytest.raises(ValueError, match="expected an integer"):
        rotation_order(((entry, 0, 0), (0, 1, 0), (0, 0, 1)))


# ============================================================
# conjugation formulas
# ============================================================


def test_conjugation_closed_forms_cubic():
    rng = random.Random(5)
    r_y = Isometry(CUBIC_FRAME, ROT_Y, (0, 0, 0))
    r_z = Isometry(CUBIC_FRAME, ROT_Z, (0, 0, 0))
    r_xy = Isometry(CUBIC_FRAME, ROT_XY, (0, 0, 0))
    r_xyz = Isometry(CUBIC_FRAME, ROT_XYZ, (0, 0, 0))
    for _ in range(100):
        a, b, c = rand_vec(rng)
        assert conjugate_translation(r_y, (a, b, c)) == (-a, b, -c)
        assert conjugate_translation(r_z, (a, b, c)) == (-a, -b, c)
        assert conjugate_translation(r_xy, (a, b, c)) == (b, a, -c)
        assert conjugate_translation(r_xyz, (a, b, c)) == (b, c, a)


def test_conjugation_ignores_translation_part():
    rng = random.Random(6)
    with_t = Isometry(CUBIC_FRAME, ROT_XY, (Fraction(3, 2), Fraction(1, 2), Fraction(1, 2)))
    without = Isometry(CUBIC_FRAME, ROT_XY, (0, 0, 0))
    for _ in range(20):
        u = rand_vec(rng)
        assert conjugate_translation(with_t, u) == conjugate_translation(without, u)


def test_conjugation_closed_form_hex_frame():
    rng = random.Random(7)
    r_om = Isometry(HEX_FRAME, ROT_OMEGA, (0, 0, 0))
    for _ in range(100):
        u, v, w = rand_vec(rng)
        assert conjugate_translation(r_om, (u, v, w)) == (-v, u - v, w)


class Q3:
    """Exact element p + q·√3 of the quadratic field, for the cartesian cross-check."""

    __slots__ = ("p", "q")

    def __init__(self, p, q=0):
        self.p = Fraction(p)
        self.q = Fraction(q)

    def __add__(self, other):
        return Q3(self.p + other.p, self.q + other.q)

    def __sub__(self, other):
        return Q3(self.p - other.p, self.q - other.q)

    def __mul__(self, other):
        return Q3(self.p * other.p + 3 * self.q * other.q, self.p * other.q + self.q * other.p)

    def __eq__(self, other):
        return self.p == other.p and self.q == other.q

    def __repr__(self):
        return f"({self.p}+{self.q}√3)"


def hex_to_cartesian(u, v, w):
    # e1 = (-1/2, √3/2, 0), e2 = (1, 0, 0), e3 = (0, 0, 1)
    x = Q3(-Fraction(u) / 2 + Fraction(v))
    y = Q3(0, Fraction(u) / 2)
    z = Q3(Fraction(w))
    return (x, y, z)


def test_hex_conjugation_matches_cartesian_formula():
    # conjugating a translation by the 120° rotation must agree with the exact
    # cartesian closed form (a,b,c) ↦ (-a/2 + (√3/2)b, -(√3/2)a - b/2, c)
    rng = random.Random(8)
    r_om = Isometry(HEX_FRAME, ROT_OMEGA, (0, 0, 0))
    half = Q3(Fraction(-1, 2))
    root3_half = Q3(0, Fraction(1, 2))
    neg_root3_half = Q3(0, Fraction(-1, 2))
    for _ in range(100):
        u, v, w = rand_vec(rng)
        a, b, c = hex_to_cartesian(u, v, w)
        expected_cart = (
            half * a + root3_half * b,
            neg_root3_half * a + half * b,
            c,
        )
        got_hex = conjugate_translation(r_om, (u, v, w))
        assert hex_to_cartesian(*got_hex) == expected_cart


# ============================================================
# group presentations
# ============================================================

EXPECTED_T0 = {
    "P432": hnf([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    "F4_132": hnf([(2, 0, 0), (1, 1, 0), (1, 0, 1)]),
    "I4_132": hnf([(2, 0, 0), (0, 2, 0), (1, 1, 1)]),
    "I432": hnf([(1, 0, 0), (0, 1, 0), (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))]),
    "P4_232": hnf([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    "P622": hnf([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
}

EXPECTED_POINT_ORDER = {
    "P432": 24,
    "F4_132": 24,
    "I4_132": 24,
    "I432": 24,
    "P4_232": 24,
    "P622": 12,
}


def test_point_orders_and_translation_lattices():
    for name in GROUP_NAMES:
        g = make_group(name)
        assert g.point_order == EXPECTED_POINT_ORDER[name]
        assert g.T0 == EXPECTED_T0[name]
        assert len(g.cosets) == g.point_order


def test_unknown_group_and_aliases():
    with pytest.raises(UnknownGroup):
        make_group("P213")
    assert canonical_group_name("p432") == "P432"
    assert canonical_group_name("i4132") == "I4_132"
    assert make_group("f4_132") is make_group("F4_132")


@pytest.mark.parametrize("bad", [5, None])
def test_non_string_group_name_is_unknown(bad):
    # a name that is not a string is rejected before it is normalised
    with pytest.raises(UnknownGroup):
        make_group(bad)


def test_coset_rotations_form_a_group():
    for name in GROUP_NAMES:
        g = make_group(name)
        rots = {c.rot for c in g.cosets}
        assert len(rots) == g.point_order
        for a in rots:
            ma = mat(a)
            for b in rots:
                prod = tuple(
                    tuple(int(sum(ma[i][k] * b[k][j] for k in range(3))) for j in range(3))
                    for i in range(3)
                )
                assert prod in rots


def test_cosets_compose_within_the_group():
    # the group law with translations: the products of cosets and the generators lie in G;
    # that conjugation keeps T0 is test_t0_normal_under_cosets
    for name in GROUP_NAMES:
        g = make_group(name)
        assert all(contains(g, gen) for gen in g.generators)
        for a in g.cosets:
            for b in g.cosets:
                assert contains(g, compose(a, b))
        # the six presentations already list all of T0, so build each group again from
        # translations spanning 2·T0: the closure must grow the lattice back to T0
        rots = [gen for gen in g.generators if gen.rot != identity(g.frame).rot]
        basis = g.T0.vectors()
        gens = [translation(g.frame, [2 * x for x in b]) for b in basis] + rots
        gens += [compose(translation(g.frame, b), rots[0]) for b in basis]
        assert _closure(gens) == (list(g.cosets), g.T0, g.maps)


@settings(max_examples=120)
@given(name=st.sampled_from(GROUP_NAMES), data=st.data())
def test_closure_does_not_depend_on_how_the_presentation_is_written(name, data):
    # the generators in any order, with the product of two of them appended, present the same
    # group, and the cosets, T0 and maps are canonical: they do not depend on the transversal
    # the pass finds first or on which Schreier translations it collects
    g = make_group(name)
    gens = list(data.draw(st.permutations(g.generators)))
    i, j = data.draw(st.tuples(*[st.integers(0, len(gens) - 1)] * 2))
    gens.append(compose(gens[i], gens[j]))
    assert _closure(gens) == (list(g.cosets), g.T0, g.maps)


def test_closure_keeps_every_schreier_translation():
    # with translations 2·ℤ³ and the 3-fold rotation R at 0 and at e₁, the three
    # Schreier translations are e₁, R·e₁ = e₂ and R²·e₁ = e₃: dropping any one leaves
    # a proper sublattice of ℤ³
    gens = [translation(CUBIC_FRAME, [2 * x for x in e]) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    gens += [Isometry(CUBIC_FRAME, ROT_XYZ, (0, 0, 0)), Isometry(CUBIC_FRAME, ROT_XYZ, (1, 0, 0))]
    assert _closure(gens)[1] == hnf([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_split_and_nonsplit_cosets():
    p432 = make_group("P432")
    assert all(c.trans == (0, 0, 0) for c in p432.cosets)
    i4132 = make_group("I4_132")
    assert any(c.trans != (0, 0, 0) for c in i4132.cosets)


def test_t0_rederivation_and_cosets():
    for name in GROUP_NAMES:
        g = make_group(name)
        cs, t0, maps = _closure(g.generators)
        assert t0 == g.T0
        assert maps == g.maps
        assert len(cs) == g.point_order
        assert {c.rot for c in cs} == {c.rot for c in g.cosets}


def test_t0_normal_under_cosets():
    for name in GROUP_NAMES:
        g = make_group(name)
        for c in g.cosets:
            for b in g.T0.vectors():
                assert member(conjugate_translation(c, b), g.T0)


def test_closure_beyond_its_cap_raises_closure_overflow():
    # a finite point group never reaches the default cap of 96, so lower it below 24
    with pytest.raises(ClosureOverflow):
        _closure(make_group("I432").generators, cap=23)
    assert len(_closure(make_group("I432").generators, cap=24)[0]) == 24


def test_hashing_a_group_record_hashes_no_fraction(monkeypatch):
    # the caches keyed on a record hash it on every lookup, so its hash reads only int and str fields
    records = [make_group(name) for name in GROUP_NAMES]

    def refuse(self):
        raise AssertionError("a Fraction was hashed")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    assert len({hash(G) for G in records}) == 6
    # equality still reads every field, the Fraction translations of the generators too
    G = records[0]
    assert G._replace(generators=G.generators[:-1]) != G


def test_contains():
    g = make_group("I4_132")
    elem = Isometry(CUBIC_FRAME, ROT_Y, (1, 0, 0))
    assert contains(g, elem)
    assert contains(g, translation(CUBIC_FRAME, (2, 0, 0)))
    assert not contains(g, translation(CUBIC_FRAME, (1, 0, 0)))


# ============================================================
# axes and stabilizers
# ============================================================


def test_fixed_axis_linear_rotation():
    ax = fixed_axis(Isometry(CUBIC_FRAME, ROT_Y, (0, 0, 0)))
    assert ax is not None
    assert ax.base == (0, 0, 0)
    assert ax.direction == (0, 1, 0)
    assert ax.order == 2


def test_fixed_axis_translated_half_turn():
    # this element of the body-centred screw group fixes the line x = 1/2, z = 0
    g = make_group("I4_132")
    elem = Isometry(CUBIC_FRAME, ROT_Y, (1, 0, 0))
    assert contains(g, elem)
    ax = fixed_axis(elem)
    assert ax is not None
    assert ax.direction == (0, 1, 0)
    assert ax.base == (Fraction(1, 2), 0, 0)
    assert ax.order == 2


def test_fixed_axis_screw_and_diagonal():
    screw = Isometry(
        CUBIC_FRAME, ROT_XY, (Fraction(3, 2), Fraction(1, 2), Fraction(1, 2))
    )
    assert fixed_axis(screw) is None
    # subtracting a lattice translation turns it into a π-rotation about
    # the diagonal line x - y = 1/2, z = -1/4
    g = make_group("I4_132")
    elem = Isometry(
        CUBIC_FRAME, ROT_XY, (Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2))
    )
    assert contains(g, elem)
    ax = fixed_axis(elem)
    assert ax is not None
    assert ax.direction == (1, 1, 0)
    assert ax.base == (0, Fraction(-1, 2), Fraction(-1, 4))
    assert ax.order == 2


def test_fixed_axis_rejects_pure_translation():
    with pytest.raises(ValueError):
        fixed_axis(translation(CUBIC_FRAME, (1, 0, 0)))


def test_stabilizer_orders():
    assert stabilizer_order((Fraction(1, 7), Fraction(2, 11), Fraction(3, 13)), make_group("P432")) == 1
    assert stabilizer_order((0, 0, 0), make_group("P432")) == 24
    i4132 = make_group("I4_132")
    stab = stabilizer((0, 0, 0), i4132)
    assert len(stab) == 3
    assert {rotation_order(s.rot) for s in stab} == {1, 3}
    assert all(apply(s, (0, 0, 0)) == (0, 0, 0) for s in stab)


def test_stabilizers_read_the_record_not_its_name():
    # the coset maps live on the record, so a name outside the table is only a label
    g = make_group("I4_132")._replace(name="not-in-the-table")
    assert stabilizer_order((0, 0, 0), g) == 3
    assert stabilizer((0, 0, 0), g) == stabilizer((0, 0, 0), make_group("I4_132"))
    assert stabilizer_order((0, 0, 0), make_group("P432")._replace(name="I4_132")) == 24


def test_axis_equivariance_under_conjugation():
    rng = random.Random(17)
    for name in GROUP_NAMES:
        g = make_group(name)
        rotational = [c for c in g.cosets if c.rot != identity(g.frame).rot]
        for _ in range(10):
            a = rng.choice(rotational)
            h = rng.choice(g.cosets)
            ax = fixed_axis(a)
            if ax is None:
                continue
            conj = compose(compose(h, a), inverse(h))
            ax2 = fixed_axis(conj)
            assert ax2 is not None
            moved_base, moved_dir = canonical_line(
                apply(h, ax.base), matvec(mat(h.rot), ax.direction)
            )
            assert ax2.base == moved_base
            assert ax2.direction == moved_dir
            assert ax2.order == ax.order
