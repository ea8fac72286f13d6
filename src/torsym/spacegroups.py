"""Isometry records in frame coordinates and six cubic/hexagonal space-group
presentations, with coset closure into integer coset maps in the coordinates
of the translation lattice, and point stabilizers read off those maps.

Hexagonal arithmetic uses the oblique basis (first two basis vectors at 120°,
unit length, third orthogonal) so every rotation matrix stays integral and
square roots never appear.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import ClosureOverflow, InvariantViolation, UnknownGroup
from .lattices import (
    IDENTITY,
    IntMat,
    IntVec,
    SubgroupHNF,
    as_fraction,
    as_int,
    checked_record,
    coord_numerators,
    frame_coords_matrix,
    hnf_columns,
    hnf_reduce,
    hnf_solve,
    int_matvec,
    mat_det,
    matmul,
)

__all__ = ["GROUP_NAMES", "Isometry", "SpaceGroup", "canonical_group_name", "make_group", "stabilizer", "stabilizer_order"]

# the cosets (R, t) of a group as maps y ↦ A·y + τ in the basis B of T0, and den: A = B⁻¹RB and τ the
# integer numerators of B⁻¹t over den, the least common denominator of every B⁻¹t (built by `_closure`)
CosetMaps = tuple[tuple[tuple[IntMat, IntVec], ...], int]
# `_closure` refuses more cosets than this, twice 48, the order of the largest finite subgroup of GL₃(ℤ)
_MAX_COSETS = 96

# ============================================================
# frames
# ============================================================


class Frame(NamedTuple):
    """Coordinate frame: basis name plus the integer Gram matrix of pairwise inner products, up to a positive factor."""

    name: str
    gram: IntMat


CUBIC_FRAME = Frame("CUBIC", IDENTITY)
# unit vectors e1, e2 at 120° and e3 orthogonal to both, all inner products doubled
HEX_FRAME = Frame("HEXAGONAL", ((2, -1, 0), (-1, 2, 0), (0, 0, 2)))


# ============================================================
# isometries
# ============================================================


class Isometry(checked_record("Isometry", "frame rot trans")):
    """Affine map x ↦ rot·x + trans with integer rotation entries in frame coordinates."""

    __slots__ = ()

    def __new__(cls, frame: Frame, rot: Sequence[Sequence[int]], trans: Sequence) -> Isometry:
        rot = tuple(tuple(map(as_int, row)) for row in rot)
        trans = tuple(as_fraction(t) for t in trans)
        if len(rot) != 3 or any(len(row) != 3 for row in rot) or len(trans) != 3:
            raise ValueError("an isometry needs a 3×3 integer rotation part and a 3-entry translation")
        if mat_det(rot) != 1:
            raise ValueError("rotation part must have determinant +1")
        if not preserves_metric(rot, frame.gram):
            raise ValueError("rotation part must preserve the frame metric")
        return tuple.__new__(cls, (frame, rot, trans))


def preserves_metric(m: Sequence[Sequence[int]], gram: IntMat) -> bool:
    """True iff mᵀ·gram·m = gram, for an integer matrix m and integer Gram matrix."""
    return matmul(matmul(tuple(zip(*m)), gram), m) == gram


# ============================================================
# rotation and translation constants
# ============================================================

# cubic frame: (x,y,z) ↦ (-x,y,-z), (-x,-y,z), (y,x,-z), (z,x,y)
ROT_Y = ((-1, 0, 0), (0, 1, 0), (0, 0, -1))
ROT_Z = ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
ROT_XY = ((0, 1, 0), (1, 0, 0), (0, 0, -1))
ROT_XYZ = ((0, 0, 1), (1, 0, 0), (0, 1, 0))

# hexagonal frame (e1, e2 at 120°): 120° rotation about the vertical axis
# sends e1 ↦ -e1-e2, e2 ↦ e1, e3 ↦ e3; the two π-rotations are the
# horizontal axes through e1+2e2 (cartesian y) and the origin-fixing diagonal
ROT_OMEGA = ((-1, 1, 0), (-1, 0, 0), (0, 0, 1))
ROT_Y_HEX = ((1, 0, 0), (1, -1, 0), (0, 0, -1))
ROT_Z_HEX = ((-1, 0, 0), (0, -1, 0), (0, 0, 1))

T_HALF = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


# ============================================================
# space groups
# ============================================================


class SpaceGroup(NamedTuple):
    """A space group: its translation lattice T0 and one coset per rotation, as frame isometries and, in that order, as CosetMaps."""

    name: str
    frame: Frame
    generators: tuple[Isometry, ...]
    T0: SubgroupHNF
    point_order: int
    cosets: tuple[Isometry, ...]
    maps: CosetMaps

    # hashed on the int and str fields only, so a record-keyed cache hashes no Fraction; == reads every field
    def __hash__(self) -> int:
        return hash((self.name, self.frame, self.T0, self.point_order))

    def __repr__(self) -> str:  # the maps restate the cosets
        return f"SpaceGroup({', '.join(f'{k}={v!r}' for k, v in zip(self._fields[:-1], self))})"


# generators: translation lattice basis plus rotational generators (rot, translation part)
_PRESENTATIONS: dict[str, tuple[Frame, list, list]] = {
    "P432": (
        CUBIC_FRAME,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(ROT_Y, (0, 0, 0)), (ROT_Z, (0, 0, 0)), (ROT_XY, (0, 0, 0)), (ROT_XYZ, (0, 0, 0))],
    ),
    "F4_132": (
        CUBIC_FRAME,
        [(2, 0, 0), (1, 1, 0), (1, 0, 1)],
        [(ROT_Y, (0, 0, 0)), (ROT_Z, (0, 0, 0)), (ROT_XY, T_HALF), (ROT_XYZ, (0, 0, 0))],
    ),
    "I4_132": (
        CUBIC_FRAME,
        [(2, 0, 0), (0, 2, 0), (1, 1, 1)],
        [
            (ROT_Y, (0, 1, 1)),
            (ROT_Z, (1, 0, 1)),
            (ROT_XY, (Fraction(3, 2), Fraction(1, 2), Fraction(1, 2))),
            (ROT_XYZ, (0, 0, 0)),
        ],
    ),
    "I432": (
        CUBIC_FRAME,
        [(1, 0, 0), (0, 1, 0), T_HALF],
        [(ROT_Y, (0, 0, 0)), (ROT_Z, (0, 0, 0)), (ROT_XY, (0, 0, 0)), (ROT_XYZ, (0, 0, 0))],
    ),
    "P4_232": (
        CUBIC_FRAME,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(ROT_Y, (0, 0, 0)), (ROT_Z, (0, 0, 0)), (ROT_XY, T_HALF), (ROT_XYZ, (0, 0, 0))],
    ),
    "P622": (
        HEX_FRAME,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(ROT_Y_HEX, (0, 0, 0)), (ROT_Z_HEX, (0, 0, 0)), (ROT_OMEGA, (0, 0, 0))],
    ),
}

GROUP_NAMES = tuple(_PRESENTATIONS)

_ALIASES = {name.lower().replace("_", ""): name for name in GROUP_NAMES}


def canonical_group_name(name: str) -> str:
    key = name.lower().replace("_", "") if isinstance(name, str) else None
    if key not in _ALIASES:
        raise UnknownGroup(f"unknown group {name!r}; expected one of {', '.join(GROUP_NAMES)}")
    return _ALIASES[key]


def _closure(generators: Sequence[Isometry]) -> tuple[list[Isometry], SubgroupHNF, CosetMaps]:
    """Coset representatives, translation lattice T0 and coset maps of the group the isometries generate.

    Returns (cosets, T0, maps): one representative per rotation, its
    translation reduced into the fundamental cell of T0 by pivot-ordered
    triangular reduction, sorted by rotation, and the same cosets as
    `CosetMaps`.  The pure translations among the generators must span
    rank 3.  More than `_MAX_COSETS` cosets raises ClosureOverflow.

    One breadth-first pass multiplies each representative, as it is found, by
    each generator once, and keeps the first product found in each coset as
    that coset's representative.  The reached rotations are closed under
    right multiplication by the generators, and each generator's inverse is
    one of its powers because the point group is finite, so every coset is
    reached.  A product r·g whose coset already has the representative s
    contributes the translation r·g·s⁻¹, and by Schreier's lemma these, with
    the pure-translation generators, generate the translation subgroup for
    any transversal (Holt, Eick & O'Brien, Handbook of Computational Group
    Theory, 2005).  So one HNF of them after the pass is T0, and one
    reduction per representative modulo T0 gives the canonical member of its
    class, whichever member the pass found.

    All arithmetic happens on integer vectors scaled by the common denominator
    of every generator translation; composition cannot introduce new
    denominators, so this is exact.  The columns M of T0's HNF basis scaled
    by that denominator give the maps in T0-coordinates without it:
    B⁻¹RB = M⁻¹RM (`frame_coords_matrix`) and B⁻¹t = M⁻¹·n = y/det M for a
    representative's numerators n, where M·y = det M·n (`hnf_solve`).
    """
    d_all = math.lcm(*(t.denominator for g in generators for t in g.trans))
    raw = [(g.rot, tuple(t.numerator * (d_all // t.denominator) for t in g.trans)) for g in generators]
    schreier = {trans for rot, trans in raw if rot == IDENTITY}
    if len(hnf_columns(schreier)) != 3:
        raise ValueError("generators must include a full-rank translation lattice")

    reps: dict[tuple, tuple[int, int, int]] = {IDENTITY: (0, 0, 0)}
    found = [IDENTITY]
    for rot_a in found:  # grows while the pass runs
        ta = reps[rot_a]
        for rot_b, trans_b in raw:
            tb = int_matvec(rot_a, trans_b)
            rot, trans = matmul(rot_a, rot_b), (ta[0] + tb[0], ta[1] + tb[1], ta[2] + tb[2])
            have = reps.get(rot)
            if have is not None:
                schreier.add((trans[0] - have[0], trans[1] - have[1], trans[2] - have[2]))
                continue
            if len(reps) >= _MAX_COSETS:
                raise ClosureOverflow(f"more than {_MAX_COSETS} cosets")
            reps[rot] = trans
            found.append(rot)
    mcols = hnf_columns(schreier)
    reps = {rot: hnf_reduce(trans, mcols) for rot, trans in reps.items()}
    rots = sorted(reps)
    coords = [frame_coords_matrix(rot, mcols) for rot in rots]
    if None in coords:
        raise InvariantViolation("a coset rotation does not preserve the translation lattice")
    det = mcols[0][0] * mcols[1][1] * mcols[2][2]  # lower triangular
    taus = [hnf_solve(mcols, [det * x for x in reps[rot]]) for rot in rots]
    g = math.gcd(det, *(x for tau in taus for x in tau))
    maps = tuple((a, (t0 // g, t1 // g, t2 // g)) for a, (t0, t1, t2) in zip(coords, taus))
    # T0 is mcols/d_all in lowest terms: divide out c = gcd(d_all, content), which keeps the HNF
    c = math.gcd(d_all, *(x for col in mcols for x in col))
    lattice = SubgroupHNF(tuple(tuple(x // c for x in col) for col in mcols), d_all // c)
    frame = generators[0].frame
    cosets = [Isometry(frame, rot, tuple(Fraction(t, d_all) for t in reps[rot])) for rot in rots]
    return cosets, lattice, (maps, det // g)


def make_group(name: str) -> SpaceGroup:
    """Build one of the six space groups from its embedded presentation."""
    return _make_group(canonical_group_name(name))


@lru_cache(maxsize=None)
def _make_group(name: str) -> SpaceGroup:
    frame, lat_gens, rot_gens = _PRESENTATIONS[name]
    gens = [Isometry(frame, IDENTITY, v) for v in lat_gens]
    gens += [Isometry(frame, rot, t) for rot, t in rot_gens]
    cosets, T0, maps = _closure(gens)
    return SpaceGroup(
        name=name,
        frame=frame,
        generators=tuple(gens),
        T0=T0,
        point_order=len(cosets),
        cosets=tuple(cosets),
        maps=maps,
    )


# ============================================================
# axes and stabilizers
# ============================================================


def fixing_cosets(maps: Sequence[tuple[IntMat, IntVec]], den: int, n: IntVec) -> list[int]:
    """Positions of the coset maps y ↦ A·y + τ with an element fixing the point y = n/den.

    n and every τ are integer numerators over den in T0-coordinates, where
    the lattice is ℤ³, so the test is A·n + τ ≡ n (mod den).
    """
    n0, n1, n2 = n
    return [
        k
        for k, ((r0, r1, r2), (t0, t1, t2)) in enumerate(maps)
        if not (
            (r0[0] * n0 + r0[1] * n1 + r0[2] * n2 + t0 - n0) % den
            or (r1[0] * n0 + r1[1] * n1 + r1[2] * n2 + t1 - n1) % den
            or (r2[0] * n0 + r2[1] * n1 + r2[2] * n2 + t2 - n2) % den
        )
    ]


def _fixing_cosets_of_point(p: Sequence, G: SpaceGroup) -> list[int]:
    """`fixing_cosets` of the frame point p, with p's T0-coordinates and the coset maps over one den."""
    maps, den = G.maps
    n, d = coord_numerators(p, G.T0)
    top = math.lcm(d, den)
    scaled = [(a, tuple(x * (top // den) for x in t)) for a, t in maps]
    return fixing_cosets(scaled, top, tuple(x * (top // d) for x in n))


def stabilizer(p: Sequence, G: SpaceGroup) -> list[Isometry]:
    """All group elements fixing the point p (one per coset at most): (R, p − R·p) for each such coset."""
    p = tuple(as_fraction(x) for x in p)
    rots = [G.cosets[k].rot for k in _fixing_cosets_of_point(p, G)]
    return [Isometry(G.frame, r, tuple(x - y for x, y in zip(p, int_matvec(r, p)))) for r in rots]


def stabilizer_order(p: Sequence, G: SpaceGroup) -> int:
    return len(_fixing_cosets_of_point(p, G))
