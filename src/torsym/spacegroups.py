"""Exact affine isometries in lattice coordinates and six cubic/hexagonal
space-group presentations, with coset closure and point stabilizers.

Hexagonal arithmetic uses the oblique basis (first two basis vectors at 120°,
unit length, third orthogonal) so every rotation matrix stays integral and
square roots never appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import ClosureOverflow, FrameMismatch, UnknownGroup
from .lattices import (
    SubgroupHNF,
    Vec3,
    hnf,
    hnf_columns,
    hnf_reduce,
    int_affine,
    int_matvec,
    mat,
    mat_det,
    mat_inv,
    matmul,
    matvec,
    member,
    vadd,
    vec,
    vneg,
    vsub,
)

# ============================================================
# frames
# ============================================================


@dataclass(frozen=True)
class Frame:
    """Coordinate frame: basis name plus the Gram matrix of pairwise inner products."""

    name: str
    gram: tuple[tuple[Fraction, ...], ...]


CUBIC_FRAME = Frame("CUBIC", mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
HEX_FRAME = Frame(
    "HEXAGONAL",
    mat(
        [
            [1, Fraction(-1, 2), 0],
            [Fraction(-1, 2), 1, 0],
            [0, 0, 1],
        ]
    ),
)


# ============================================================
# isometries
# ============================================================


@dataclass(frozen=True)
class Isometry:
    """Affine map x ↦ rot·x + trans with integer rotation entries in frame coordinates."""

    frame: Frame
    rot: tuple[tuple[int, ...], ...]
    trans: Vec3

    def __post_init__(self) -> None:
        rot = tuple(tuple(int(e) for e in row) for row in self.rot)
        object.__setattr__(self, "rot", rot)
        object.__setattr__(self, "trans", tuple(Fraction(t) for t in self.trans))
        problem = _rotation_problem(self.frame, rot)
        if problem is not None:
            raise ValueError(problem)


@lru_cache(maxsize=None)
def _rotation_problem(frame: Frame, rot: tuple[tuple[int, ...], ...]) -> str | None:
    """Why rot is not a proper rotation of the frame, or None if it is one.

    Only the verdict is memoised: an invalid pair raises on every construction.
    """
    if mat_det(rot) != 1:
        return "rotation part must have determinant +1"
    if not preserves_metric(rot, frame_gram_int(frame)):
        return "rotation part must preserve the frame metric"
    return None


@lru_cache(maxsize=None)
def frame_gram_int(frame: Frame) -> tuple[tuple[int, ...], ...]:
    """The frame's Gram matrix scaled by the least common denominator of its entries."""
    den = math.lcm(*(x.denominator for row in frame.gram for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in frame.gram)


def preserves_metric(m: Sequence[Sequence[int]], gram: tuple[tuple[int, ...], ...]) -> bool:
    """True iff mᵀ·gram·m = gram, for an integer matrix m and integer Gram matrix."""
    return matmul(matmul(tuple(zip(*m)), gram), m) == gram


_IDENTITY_ROT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def identity(frame: Frame) -> Isometry:
    return Isometry(frame, _IDENTITY_ROT, vec(0, 0, 0))


def translation(frame: Frame, v: Sequence) -> Isometry:
    return Isometry(frame, _IDENTITY_ROT, vec(*v))


def is_pure_translation(g: Isometry) -> bool:
    return g.rot == _IDENTITY_ROT


def compose(g: Isometry, h: Isometry) -> Isometry:
    """The map p ↦ g(h(p))."""
    if g.frame != h.frame:
        raise FrameMismatch("cannot compose isometries from different frames")
    return Isometry(g.frame, matmul(g.rot, h.rot), int_affine(g.rot, h.trans, g.trans))


def inverse(g: Isometry) -> Isometry:
    inv = mat_inv(mat(g.rot))
    rot = tuple(tuple(int(e) for e in row) for row in inv)
    return Isometry(g.frame, rot, vneg(matvec(inv, g.trans)))


def apply(g: Isometry, p: Sequence) -> Vec3:
    return int_affine(g.rot, p, g.trans)


def conjugate_translation(g: Isometry, u: Sequence) -> Vec3:
    """Translation vector of g⁻¹·t_u·g, namely rot(g)⁻¹·u; independent of trans(g)."""
    return matvec(mat_inv(mat(g.rot)), tuple(Fraction(x) for x in u))


def rotation_order(rot: Sequence[Sequence[int]]) -> int:
    m = tuple(tuple(int(e) for e in row) for row in rot)
    p = m
    for k in range(1, 7):
        if p == _IDENTITY_ROT:
            return k
        p = matmul(p, m)
    raise ValueError("rotation order exceeds 6; not a crystallographic rotation")


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

T_X = (1, 0, 0)
T_Y = (0, 1, 0)
T_Z = (0, 0, 1)
T_HALF = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


# ============================================================
# space groups
# ============================================================


@dataclass(frozen=True)
class SpaceGroup:
    name: str
    frame: Frame
    generators: tuple[Isometry, ...]
    T0: SubgroupHNF
    point_order: int
    cosets: tuple[Isometry, ...]


def _sum_t(*vs) -> tuple:
    out = vec(0, 0, 0)
    for v in vs:
        out = vadd(out, vec(*v))
    return out


# generators: translation lattice basis plus rotational generators (rot, translation part)
_PRESENTATIONS: dict[str, tuple[Frame, list, list]] = {
    "P432": (
        CUBIC_FRAME,
        [T_X, T_Y, T_Z],
        [(ROT_Y, (0, 0, 0)), (ROT_Z, (0, 0, 0)), (ROT_XY, (0, 0, 0)), (ROT_XYZ, (0, 0, 0))],
    ),
    "F4_132": (
        CUBIC_FRAME,
        [_sum_t(T_X, T_X), _sum_t(T_Y, T_X), _sum_t(T_Z, T_X)],
        [(ROT_Y, (0, 0, 0)), (ROT_Z, (0, 0, 0)), (ROT_XY, T_HALF), (ROT_XYZ, (0, 0, 0))],
    ),
    "I4_132": (
        CUBIC_FRAME,
        [_sum_t(T_X, T_X), _sum_t(T_Y, T_Y), _sum_t(T_HALF, T_HALF)],
        [
            (ROT_Y, _sum_t(T_Z, T_Y)),
            (ROT_Z, _sum_t(T_X, T_Z)),
            (ROT_XY, _sum_t(T_X, T_HALF)),
            (ROT_XYZ, (0, 0, 0)),
        ],
    ),
    "I432": (
        CUBIC_FRAME,
        [T_X, T_Y, T_HALF],
        [(ROT_Y, (0, 0, 0)), (ROT_Z, (0, 0, 0)), (ROT_XY, (0, 0, 0)), (ROT_XYZ, (0, 0, 0))],
    ),
    "P4_232": (
        CUBIC_FRAME,
        [T_X, T_Y, T_Z],
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
    key = name.lower().replace("_", "")
    if key not in _ALIASES:
        raise UnknownGroup(f"unknown group {name!r}; expected one of {', '.join(GROUP_NAMES)}")
    return _ALIASES[key]


def _closure(generators: Sequence[Isometry], cap: int = 96) -> tuple[list[Isometry], SubgroupHNF]:
    """Coset representatives and translation lattice T0 of the group the isometries generate.

    Returns (cosets, T0): one representative per rotation, its translation
    reduced into the fundamental cell of T0 by pivot-ordered triangular
    reduction, sorted by (rot, trans).  The pure translations among the
    generators seed the lattice and must span rank 3; translation
    discrepancies enlarge it.  More than `cap` cosets raises ClosureOverflow.

    One breadth-first pass multiplies each representative, as it is found, by
    each generator once.  The reached rotations are closed under right
    multiplication by the generators, and each generator's inverse is one of
    its powers because the point group is finite, so every coset is reached.
    A product r·g whose coset already has the representative s contributes
    the translation r·g·s⁻¹, and by Schreier's lemma these elements, over all
    pairs (r, g), generate the translation subgroup (Holt, Eick & O'Brien,
    Handbook of Computational Group Theory, 2005).  Reducing a
    representative modulo the growing lattice changes such an element only by
    a vector of that lattice, so the final lattice is that subgroup.

    All arithmetic happens on integer vectors scaled by the common denominator
    of every generator translation; composition cannot introduce new
    denominators, so this is exact.
    """
    seed = hnf([g.trans for g in generators if is_pure_translation(g)])
    if seed.rank != 3:
        raise ValueError("generators must include a full-rank translation lattice")
    d_all = math.lcm(*(t.denominator for g in generators for t in g.trans))
    # seed.scale is 1/D with D | d_all, as D clears the seed's generators
    k = d_all // seed.scale.denominator
    mcols = [tuple(e * k for e in col) for col in seed.basis]

    reps: dict[tuple, tuple[int, int, int]] = {_IDENTITY_ROT: (0, 0, 0)}
    found = [_IDENTITY_ROT]
    raw = [(g.rot, tuple(int(t * d_all) for t in g.trans)) for g in generators]

    def merge(rot, trans) -> None:
        nonlocal mcols
        trans = hnf_reduce(trans, mcols)
        have = reps.get(rot)
        if have is None:
            if len(reps) >= cap:
                raise ClosureOverflow(f"more than {cap} cosets")
            reps[rot] = trans
            found.append(rot)
            return
        delta = (trans[0] - have[0], trans[1] - have[1], trans[2] - have[2])
        if hnf_reduce(delta, mcols) == (0, 0, 0):
            return
        mcols = list(hnf_columns(list(mcols) + [delta]))
        for r in reps:
            reps[r] = hnf_reduce(reps[r], mcols)

    for rot_a in found:  # grows while the pass runs
        for rot_b, trans_b in raw:
            ta, tb = reps[rot_a], int_matvec(rot_a, trans_b)
            merge(matmul(rot_a, rot_b), (ta[0] + tb[0], ta[1] + tb[1], ta[2] + tb[2]))
    lattice = hnf([vec(*(Fraction(e, d_all) for e in col)) for col in mcols])
    frame = generators[0].frame
    cosets = [
        Isometry(frame, rot, vec(*(Fraction(t, d_all) for t in trans))) for rot, trans in reps.items()
    ]
    cosets.sort(key=lambda g: (g.rot, g.trans))
    return cosets, lattice


def make_group(name: str) -> SpaceGroup:
    """Build one of the six space groups from its embedded presentation."""
    return _make_group(canonical_group_name(name))


@lru_cache(maxsize=None)
def _make_group(name: str) -> SpaceGroup:
    frame, lat_gens, rot_gens = _PRESENTATIONS[name]
    gens = [translation(frame, v) for v in lat_gens]
    gens += [Isometry(frame, rot, vec(*t)) for rot, t in rot_gens]
    cosets, T0 = _closure(gens)
    return SpaceGroup(
        name=name,
        frame=frame,
        generators=tuple(gens),
        T0=T0,
        point_order=len(cosets),
        cosets=tuple(cosets),
    )


def contains(G: SpaceGroup, g: Isometry) -> bool:
    """True iff the isometry belongs to the group."""
    if g.frame != G.frame:
        raise FrameMismatch("isometry frame does not match the group frame")
    for c in G.cosets:
        if c.rot == g.rot:
            return member(vsub(g.trans, c.trans), G.T0)
    return False


# ============================================================
# axes and stabilizers
# ============================================================


@dataclass(frozen=True)
class Axis:
    """Fixed line of a rotation: base point, primitive direction, rotational order."""

    base: Vec3
    direction: tuple[int, int, int]
    order: int


def stabilizer_cosets(p: Sequence, G: SpaceGroup) -> list[Isometry]:
    """The coset representatives (R, t) whose coset has an element fixing p: R·p + t − p ∈ T0."""
    return [c for c in G.cosets if member(vsub(apply(c, p), p), G.T0)]


def stabilizer(p: Sequence, G: SpaceGroup) -> list[Isometry]:
    """All group elements fixing the point p (one per coset at most)."""
    p = tuple(Fraction(x) for x in p)
    return [
        Isometry(G.frame, c.rot, vadd(c.trans, vsub(p, apply(c, p))))
        for c in stabilizer_cosets(p, G)
    ]


def stabilizer_order(p: Sequence, G: SpaceGroup) -> int:
    return len(stabilizer_cosets(p, G))
