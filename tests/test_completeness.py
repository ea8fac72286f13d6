"""The family table is complete at every index: a conductor bounds every invariant lattice, and a finite search finds them.

Λ is the ℤ-span of a group's coset rotations in T0-coordinates, and Λmax
its saturation: M₃(ℤ) for a cubic group, the block-diagonal End(plane) ×
End(axis) for P622.  The exponent f of Λmax/Λ is the last Smith invariant
of Λ in ℤ⁹.  An invariant L has f·Λmax·L ⊆ Λ·L ⊆ L ⊆ Λmax·L, and Λmax·L is
c·T0 for the content c of L (cubic), or a·plane ⊕ b·axis (P622).  So L,
scaled to Λmax·L = T0, lies between f·T0 and T0: it is an invariant
subgroup of (ℤ/f)³.  These are found here by closure, without the survey,
and must be exactly the families' least instances (Curtis & Reiner,
*Methods of Representation Theory* I, §§23–27).
"""

import math
from functools import lru_cache
from itertools import product

import pytest

from torsym import sublattices
from torsym.lattices import hnf_columns, invariant_coords_matrix, relative_coordinates, smith_form
from torsym.spacegroups import GROUP_NAMES, make_group
from torsym.sublattices import _family_table, instantiate

# the Smith invariants of Λ in ℤ⁹, per group; the last one is the conductor f
SMITH = {
    "P432": (1, 1, 1, 1, 1, 2, 2, 2, 2),
    "F4_132": (1, 1, 1, 1, 1, 1, 1, 4, 4),
    "I4_132": (1, 1, 1, 1, 1, 1, 1, 4, 4),
    "I432": (1, 1, 1, 1, 1, 1, 1, 4, 4),
    "P4_232": (1, 1, 1, 1, 1, 2, 2, 2, 2),
    "P622": (1, 1, 1, 1, 3),
}


def _coset_rotations(G) -> list:
    """G's coset rotations as integer matrices in T0-coordinates, one per coset."""
    return [invariant_coords_matrix(c.rot, G.T0) for c in G.cosets]


@lru_cache(maxsize=None)
def _subgroups(f: int) -> frozenset:
    """Every subgroup of (ℤ/f)³: each one is a smaller one with one more generator v, S + ⟨v⟩."""
    zero = frozenset({(0, 0, 0)})
    found, todo = {zero}, [zero]
    while todo:
        S = todo.pop()
        for v in product(range(f), repeat=3):
            if v not in S:
                T = frozenset(tuple((s + k * x) % f for s, x in zip(w, v)) for w in S for k in range(f))
                if T not in found:
                    found.add(T)
                    todo.append(T)
    return frozenset(found)


def _normalised(basis, hexagonal: bool) -> bool:
    """Λmax·L = T0 for L of a column HNF basis in T0-coordinates: content 1, or plane content 1 and axis pivot 1."""
    (a, b, c), (_, d, e), (_, _, p) = basis
    return p == 1 and math.gcd(a, b, d) == 1 if hexagonal else math.gcd(a, b, c, d, e, p) == 1


def _invariant_normalised(G, f: int) -> set:
    """The normalised invariant lattices between f·T0 and T0, as column HNFs in T0-coordinates."""
    rots = _coset_rotations(G)
    out = set()
    for S in _subgroups(f):
        if all(tuple(sum(r * x for r, x in zip(row, w)) % f for row in A) in S for A in rots for w in S):
            basis = hnf_columns([*S, (f, 0, 0), (0, f, 0), (0, 0, f)])
            if _normalised(basis, G.frame.name == "HEXAGONAL"):
                out.add(basis)
    return out


def _least_in_t0(G, table) -> set:
    """The families' least instances L₁ as column HNFs in T0-coordinates."""
    return {hnf_columns(relative_coordinates(L1, G.T0)) for _, _, L1, _ in table.values()}


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_the_conductor_is_the_last_smith_invariant_of_the_rotations(name):
    G = make_group(name)
    rots = _coset_rotations(G)
    _, diag, _ = smith_form([[x for row in A for x in row] for A in rots])
    assert tuple(diag) == SMITH[name]
    if name == "P622":
        # Λ lies in the block-diagonal matrices, a saturated ℤ⁵ that its rank 5 fills up to finite index
        assert all(A[0][2] == A[1][2] == A[2][0] == A[2][1] == 0 for A in rots)


@pytest.mark.parametrize("f, count", [(2, 16), (3, 28), (4, 129)])
def test_the_closure_finds_every_subgroup_of_the_cube(f, count):
    # as many subgroups as lattices between f·ℤ³ and ℤ³, each of order dividing f³
    found = _subgroups(f)
    assert len(found) == count
    assert all(f**3 % len(S) == 0 for S in found)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_the_normalised_invariant_lattices_are_the_least_family_instances(name):
    G = make_group(name)
    f = SMITH[name][-1]
    found = _invariant_normalised(G, f)
    assert len(found) == (2 if name == "P622" else 3)
    assert found == _least_in_t0(G, _family_table(G.T0, G.frame.name))


def test_a_unit_table_without_hex_rot_is_incomplete(monkeypatch):
    # P622's rotation-sublattice at n = m = 1 is invariant and normalised, and only HEX_ROT gives it
    G = make_group("P622")
    hex_rot = hnf_columns(relative_coordinates(instantiate("HEX_ROT", 1, 1), G.T0))
    monkeypatch.setattr(sublattices, "HEX_TAGS", ("HEX_PRIMITIVE",))
    monkeypatch.setattr(sublattices, "_UNITS", {k: v for k, v in sublattices._UNITS.items() if k != "HEX_ROT"})
    table = _family_table.__wrapped__(G.T0, G.frame.name)
    assert list(table) == ["HEX_PRIMITIVE"]
    assert _invariant_normalised(G, 3) - _least_in_t0(G, table) == {hex_rot}


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_the_smallest_smith_invariant_is_no_conductor(name):
    # f = 1 leaves T0 alone, and so misses every family but the one of index 1
    G = make_group(name)
    found = _invariant_normalised(G, SMITH[name][0])
    assert found == {((1, 0, 0), (0, 1, 0), (0, 0, 1))} and found < _least_in_t0(G, _family_table(G.T0, G.frame.name))
