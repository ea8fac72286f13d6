"""Finite-index invariant sublattices and their closed-form families."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from types import SimpleNamespace
from typing import Iterable, Sequence

from .errors import InvariantViolation, RankDeficient, TorsymError, UnmatchedLattice
from .lattices import (
    IDENTITY,
    IntMat,
    SubgroupHNF,
    _from_t0_hnfs,
    _rank3_basis,
    adjugate,
    checked_record,
    covolume,
    frame_coords_matrix,
    hnf_columns,
    hnf_product,
    hnf_solve,
    index,
    int_matvec,
    invariant_coords_matrix,
    mat_det,
    matmul,
    rotation_axis,
)
from .spacegroups import Frame, SpaceGroup

__all__ = [
    "FAMILY_TAGS", "LatticeFamily", "instantiate", "invariant_sublattices", "match_family",
    "normal_translation_subgroups",
]

# ============================================================
# closed-form lattice families
# ============================================================

CUBIC_TAGS = ("CUBIC_PRIMITIVE", "CUBIC_FACE", "CUBIC_BODY")
HEX_TAGS = ("HEX_PRIMITIVE", "HEX_ROT")
FAMILY_TAGS = CUBIC_TAGS + HEX_TAGS

class LatticeFamily(checked_record("LatticeFamily", "tag n m")):
    """A closed-form translation-lattice family instance (tag plus parameters)."""

    __slots__ = ()

    def __new__(cls, tag: str, n: int, m: int | None = None) -> LatticeFamily:
        if tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {tag!r}")
        # `_check_index`'s test inline, as every survey row builds a family; it is called only to raise
        if type(n) is not int or n < 1:
            _check_index(n, "family parameter n")
        if tag in HEX_TAGS:
            if m is None:
                raise ValueError("hexagonal families require a positive parameter m")
            if type(m) is not int or m < 1:
                _check_index(m, "family parameter m")
        elif m is not None:
            raise ValueError("cubic families take a single parameter")
        return tuple.__new__(cls, (tag, n, m))

    def instantiate(self) -> SubgroupHNF:
        return SubgroupHNF(*_instance_basis(self.tag, self.n, self.m))

    def to_json(self) -> dict:
        return {"tag": self.tag, "n": self.n, **({} if self.m is None else {"m": self.m})}


def instantiate(tag: str, n: int, m: int | None = None) -> SubgroupHNF:
    """Canonical subgroup for a family tag and parameters; ValueError where LatticeFamily rejects them."""
    return LatticeFamily(tag, n, m).instantiate()


# the unit table: the unit (n = 1, m = 1) lattice of each family, integer generators over a den
_UNITS = {tag: SubgroupHNF(hnf_columns(gens), den) for tag, gens, den in (
    ("CUBIC_PRIMITIVE", IDENTITY, 1),
    ("CUBIC_FACE", ((2, 0, 0), (1, 1, 0), (1, 0, 1)), 1),
    ("CUBIC_BODY", ((2, 0, 0), (0, 2, 0), (1, 1, 1)), 2),  # the body centre (½, ½, ½)
    ("HEX_PRIMITIVE", IDENTITY, 1),
    ("HEX_ROT", ((2, 1, 0), (1, 2, 0), (0, 0, 1)), 1),
)}
_ROW_LIMIT = 10**6  # the most rows one closed-form survey builds: a larger bound is refused before its first row


def _frame(name: str) -> tuple[tuple[str, ...], int]:
    """(family tags, order of the whole rotation group, |O| or |D6|) of a frame name; ValueError for any other."""
    if name not in ("CUBIC", "HEXAGONAL"):
        raise ValueError(f"unknown frame {name!r}: the frames are CUBIC and HEXAGONAL")
    return (CUBIC_TAGS, 24) if name == "CUBIC" else (HEX_TAGS, 12)


def _instance_basis(tag: str, n: int, m: int | None) -> tuple[tuple, int]:
    """instance(tag, n, m) as (basis, den), its unit H/q scaled: cubic n·H/q is n/g·H over q/g for
    g = gcd(n, q), q being prime to H's content; hexagonal, over den 1, is H's plane times n and the axis (0, 0, m)."""
    H, q = _UNITS[tag]
    if tag in HEX_TAGS:
        return (*_scaled(H[:2], n), (0, 0, m)), 1
    g = math.gcd(n, q)
    return _scaled(H, n // g), q // g


# ============================================================
# the point-group action in T0-coordinates
# ============================================================


@lru_cache(maxsize=None)
def _coord_rotations(T0: SubgroupHNF, rotations: tuple) -> tuple:
    """Rotation matrices rewritten in T0-coordinates (must be integral and generate a finite group)."""
    out = tuple(invariant_coords_matrix(r, T0) for r in rotations)
    if any(abs(mat_det(r)) != 1 for r in out):
        raise ValueError("rotation is not of finite order")
    # `_split` raises unless they generate a finite group
    _split(out)
    return out


def _prime_power_parts(d: int) -> list[tuple[int, int]]:
    """The factorisation of d as (prime, exponent) pairs, primes ascending; trial division by 2 and then
    the odd p stops at p = 10⁶, so every d ≤ 10¹² factors, and a cofactor above 10¹² left unfactored raises TorsymError."""
    parts = []
    rest, p = d, 2
    while p * p <= rest:
        if p > 10**6:
            raise TorsymError(f"index {d}: trial division to 10**6 leaves the cofactor {rest} > 10**12 unfactored")
        if rest % p == 0:
            k = 0
            while rest % p == 0:
                k += 1
                rest //= p
            parts.append((p, k))
        p += 1 if p == 2 else 2
    if rest > 1:
        parts.append((rest, 1))
    return parts


# ============================================================
# invariant sublattices of prime-power index: submodule descent mod p
# ============================================================
#
# Every invariant L of index p^k inside an invariant M is reached by a chain of
# maximal steps, and a maximal invariant N ⊂ M contains pM: otherwise
# N + pM = M, which forces N = M for a p-power index.  So the maximal
# invariant sublattices of M are the preimages of the maximal submodules of
# M/pM ≅ F_p³: every invariant plane, every invariant line lying in no
# invariant plane, and {0} when M/pM is simple (Plesken & Hanrath,
# Math. Comp. 43 (1984); CARAT).  The descent runs on integer lattices in
# T0-coordinates, which are mapped back to T0 at the end; there T0 itself has
# the HNF basis IDENTITY.

def _fixes(b: IntMat, v: Sequence[int], p: int) -> bool:
    """Whether b maps the line ⟨v⟩ of F_p³ into itself: b·v ≡ λ·v for some λ, that is b·v × v ≡ 0."""
    v0, v1, v2 = v
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    x0, x1, x2 = b00 * v0 + b01 * v1 + b02 * v2, b10 * v0 + b11 * v1 + b12 * v2, b20 * v0 + b21 * v1 + b22 * v2
    return not ((x1 * v2 - x2 * v1) % p or (x2 * v0 - x0 * v2) % p or (x0 * v1 - x1 * v0) % p)


def _annihilator(w: Sequence[int], p: int) -> tuple:
    """The column HNF of {x ∈ ℤ³ : w·x ≡ 0 (mod p)} for w ≢ 0: the preimage in ℤ³ of the plane w^⊥ of F_p³.

    For i the last index with wᵢ ≢ 0, the xⱼ with j ≠ i are free and fix
    xᵢ ≡ −Σ_{j<i} (wⱼ/wᵢ)·xⱼ: column j < i is eⱼ − (wⱼ/wᵢ)·eᵢ with its
    entry in row i reduced into [0, p), column i is p·eᵢ, and column j > i
    is eⱼ.
    """
    i = max(j for j in range(3) if w[j] % p)
    t = -pow(w[i], -1, p)
    cols = [[int(r == j) for r in range(3)] for j in range(3)]
    for j in range(i):
        cols[j][i] = w[j] * t % p
    cols[i][i] = p
    return tuple(map(tuple, cols))


def _span(v: Sequence[int], p: int) -> tuple:
    """The column HNF of ℤ·v + p·ℤ³ for v ≢ 0: the preimage in ℤ³ of the line ⟨v⟩ of F_p³.

    For i the first index with vᵢ ≢ 0, column i is v/vᵢ reduced into
    [0, p), with 1 in row i, and every other column j is p·eⱼ.
    """
    i = min(j for j in range(3) if v[j] % p)
    inv = pow(v[i], -1, p)
    cols = [tuple(p * (r == j) for r in range(3)) for j in range(3)]
    cols[i] = tuple(x * inv % p for x in v)
    return tuple(cols)


def _fixed_lines(acts: Sequence[IntMat], p: int) -> list[tuple[int, ...]]:
    """The lines of F_p³ that every matrix maps to itself, one spanning vector each.

    When every matrix is scalar mod p, that is every line.  Otherwise each
    lies in an eigenspace of the first matrix a that is not: the kernel of
    a − λ for a root λ ∈ F_p of det(x − a) = x³ − tr·x² + c₂·x − det, for
    c₂ the sum of the principal 2×2 minors.  It is a line spanned by a
    column of adj(a − λ) nonzero mod p, as in `rotation_axis`, or else the
    plane ⟨u, w⟩ orthogonal to a nonzero row (`_annihilator`), whose lines
    are ⟨w⟩ and the ⟨u + t·w⟩.  A candidate is kept when every matrix after
    a fixes it (`_fixes`): a fixes it, and the matrices before a are scalar.
    """
    for k, a in enumerate(acts):
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
        if a01 % p or a02 % p or a10 % p or a12 % p or a20 % p or a21 % p or (a11 - a00) % p or (a22 - a00) % p:
            break
    else:
        return [*((1, s, t) for s in range(p) for t in range(p)), *((0, 1, t) for t in range(p)), (0, 0, 1)]
    tr = a00 + a11 + a22
    c2 = a00 * a11 - a01 * a10 + a00 * a22 - a02 * a20 + a11 * a22 - a12 * a21
    det = a00 * (a11 * a22 - a12 * a21) - a01 * (a10 * a22 - a12 * a20) + a02 * (a10 * a21 - a11 * a20)
    candidates = []
    for lam in range(p):
        if (((lam - tr) * lam + c2) * lam - det) % p:
            continue
        rows = [[(a[i][j] - lam * (i == j)) % p for j in range(3)] for i in range(3)]
        col = next((col for col in zip(*adjugate(rows)) if any(x % p for x in col)), None)
        if col is None:  # the columns of pivot 1 of the annihilator of a nonzero row span the plane
            K = _annihilator(next(r for r in rows if any(r)), p)
            u, w = (c for j, c in enumerate(K) if c[j] == 1)
            candidates += [w, *(tuple((x + t * y) % p for x, y in zip(u, w)) for t in range(p))]
        else:
            candidates.append(tuple(x % p for x in col))
    for b in acts[k + 1 :]:
        candidates = [v for v in candidates if _fixes(b, v, p)]
    return candidates


def _scaled(M: tuple, c: int) -> tuple:
    """c·M for a column HNF M and c ≥ 1: again a column HNF."""
    return tuple([(c * x, c * y, c * z) for x, y, z in M])


def _primitive(M: tuple) -> tuple[int, tuple]:
    """(c, M₀) with M = c·M₀ for c the content of M's basis."""
    c = math.gcd(*M[0], *M[1], *M[2])
    return c, M if c == 1 else tuple(tuple(x // c for x in col) for col in M)


@lru_cache(maxsize=None)
def _maximal_steps(coord_rots: tuple, p: int, M: tuple) -> tuple:
    """(step, N) for every maximal invariant sublattice N of an invariant M, with [M:N] = p^step.

    M and every N are integer column HNF bases in T0-coordinates; N is the
    preimage of a maximal G-submodule of M/pM.  Step 1: an invariant plane,
    the annihilator of an invariant line w (a normal) of the transposed
    action.  Step 2: an invariant line in no invariant plane.  Step 3: pM,
    when M/pM is simple.  The rotations act on M, for H its basis, by
    H⁻¹·r·H, and N is the HNF of H·K for K the closed-form preimage in ℤ³
    of the subspace.  The action's lines are listed only when there is at
    most one normal: two normals give two invariant planes, which meet in
    an invariant line L₀, and any other invariant line L lies in the
    invariant plane L + L₀, so then no line is maximal.
    """
    acts = [frame_coords_matrix(r, M) for r in coord_rots]
    if None in acts:
        raise InvariantViolation("a lattice of the descent is not invariant")
    normals = _fixed_lines([tuple(zip(*a)) for a in acts], p)
    lines = []
    if len(normals) <= 1:  # ⟨v⟩ lies in the plane of a normal w exactly when w·v ≡ 0
        lines = [v for v in _fixed_lines(acts, p) if all(sum(x * y for x, y in zip(w, v)) % p for w in normals)]
    if not normals and not lines:  # M/pM is simple: pM, already a column HNF, is the only maximal one
        return ((3, _scaled(M, p)),)
    planes = [(1, hnf_product(M, _annihilator(w, p))) for w in normals]
    return (*planes, *((2, hnf_product(M, _span(v, p))) for v in lines))


@lru_cache(maxsize=None)
def _descent_p_power(coord_rots: tuple, p: int, k: int) -> tuple:
    """All invariant sublattices of index p^k ≥ p by the descent mod p, as integer HNF bases in T0-coordinates.

    The last step of a chain has index p, p² or p³, so the lattices of
    index p^k are the steps of those of index p^(k−3) … p^(k−1).  The
    rotations act on M = c·M₀ as on M₀, so the steps from M are c times
    those from M₀, and each runs once per primitive M₀.
    """
    out: set[tuple] = set()
    for step in range(1, min(k, 3) + 1):
        for c, M0 in map(_primitive, _descent_p_power(coord_rots, p, k - step) if k > step else (IDENTITY,)):
            found = [N for s, N in _maximal_steps(coord_rots, p, M0) if s == step]
            out.update(found if c == 1 else (_scaled(N, c) for N in found))
    return tuple(out)  # most primes give none, and () is shared


# ============================================================
# invariant sublattices of index prime to |P|: the closed form
# ============================================================


@lru_cache(maxsize=None)
def _split(coord_rots: tuple) -> SimpleNamespace:
    """|P| for the finite group P the rotations generate, ⟨χ, χ⟩ = Σ_g tr(g)²/|P|, and the split of ℚ³ where known.

    `parts` holds (dim V, basis of ℤ³ ∩ V) per component V, and `step` the
    gcd of the dims: ℚ³ at norm 1, where it is absolutely irreducible (cubic
    P); at norm 2 (dihedral P), a line ℓ on which P acts by a sign character
    ψ and the absolutely irreducible plane W = ker Σ_g ψ(g)·g.  A rotation g
    of order 3, 4 or 6 has ψ(g) = 1, so ℓ = ker(g − I) and
    W = im(g − I) ⊥ ker(gᵀ − I).
    """
    group, frontier = {IDENTITY}, {IDENTITY}
    while frontier:
        frontier = {matmul(g, r) for g in frontier for r in coord_rots} - group
        group |= frontier
        if len(group) > 48:  # the order of the largest finite subgroup of GL₃(ℤ)
            raise ValueError("rotations do not generate a finite group")
    norm = sum((g[0][0] + g[1][1] + g[2][2]) ** 2 for g in group) // len(group)
    g = next((g for g in group if mat_det(g) == 1 and g[0][0] + g[1][1] + g[2][2] in (0, 1, 2)), None)
    parts = ((3, IDENTITY),) if norm == 1 else ()
    if norm == 2 and g is not None:
        v, n = rotation_axis(g), rotation_axis(tuple(zip(*g)))
        if any(int_matvec(r, v) not in (v, tuple(-x for x in v)) or int_matvec(tuple(zip(*r)), n) not in (n, tuple(-x for x in n)) for r in coord_rots):
            raise InvariantViolation("a component of the rational split of ℚ³ is not invariant")
        parts = ((1, (v,)), (2, hnf_columns([(0, n[2], -n[1]), (-n[2], 0, n[0]), (n[1], -n[0], 0)])))
    return SimpleNamespace(order=len(group), norm=norm, parts=parts, step=math.gcd(*(dim for dim, _ in parts)))


@lru_cache(maxsize=None)
def _invariant_p_power(coord_rots: tuple, p: int, k: int) -> tuple:
    """All invariant sublattices of index p^k ≥ p, as integer HNF bases in T0-coordinates.

    For p ∤ |P| and a split ℚ³ = ⊕Vᵢ they are Σᵢ p^aᵢ·Λᵢ + p^max a·ℤ³ over
    Σᵢ aᵢ·dim Vᵢ = k, for Λᵢ = ℤ³ ∩ Vᵢ; otherwise the descent finds them.
    Proof: |P| times each projection onto a Vᵢ is an integer matrix, so
    |P|·ℤ³ ⊆ ⊕Λᵢ and the split is exact at p.  An absolutely irreducible
    constituent stays irreducible mod p when p ∤ |P|, so by Nakayama the
    p^aᵢ·Λᵢ are the only invariant sublattices of Λᵢ of p-power index.  The
    term p^max a·ℤ³ makes the sum right at every other prime.
    """
    split = _split(coord_rots)
    if not split.parts or split.order % p == 0:
        return _descent_p_power(coord_rots, p, k)
    out = []
    for a in product(range(k + 1), repeat=len(split.parts)):
        if sum(x * dim for x, (dim, _) in zip(a, split.parts)) == k:
            gens = [col for x, (_, basis) in zip(a, split.parts) for col in _scaled(basis, p**x)]
            out.append(hnf_columns([*gens, *_scaled(IDENTITY, p ** max(a))]))
    return tuple(out)


def _coprime_meet(A: tuple, B: tuple) -> tuple:
    """The column HNF of A ∩ B = b·A + a·B for full-rank integer column HNFs A, B of coprime indices a, b: b·ℤ³ ⊆ B, so b·A ⊆ A ∩ B, and likewise a·B; at a prime of a, b is a unit, so both sides are A there, and at a prime of b both are B."""
    a, b = (M[0][0] * M[1][1] * M[2][2] for M in (A, B))
    return hnf_columns([*_scaled(A, b), *_scaled(B, a)])


def _check_index(d, name: str) -> None:
    if type(d) is not int or d < 1:
        raise ValueError(f"{name} must be a positive integer, got {d!r}")


def _of_index(coord_rots: tuple, d: int) -> tuple:
    """The invariant lattices of index d, as integer HNF bases in T0-coordinates; (IDENTITY,) at d = 1.

    d splits into its prime-power parts p^k.  Where the closed form applies
    (`_invariant_p_power`), only the k = Σᵢ aᵢ·dim Vᵢ, the multiples of the
    gcd `step` of the dims, carry a part, so any other k gives none before
    any part is looked up.  A lattice of index m·p^k, with m prime to p, is
    the meet of its parts of index m and p^k (`_coprime_meet`), so the
    parts are met one stage per prime.
    """
    split = _split(coord_rots)
    parts = _prime_power_parts(d)
    if any(k % split.step for p, k in parts if split.parts and split.order % p):
        return ()
    lattices: tuple = (IDENTITY,)
    for i, (p, k) in enumerate(parts):
        part = _invariant_p_power(coord_rots, p, k)
        lattices = part if i == 0 else tuple(_coprime_meet(A, B) for A in lattices for B in part)
    return lattices


def _check_rotation(r) -> IntMat:
    """r as a tuple of row tuples; ValueError naming r unless it is a 3×3 matrix of ints."""
    try:
        rows = tuple(map(tuple, r))
    except TypeError:  # r or one of its rows is not iterable
        rows = ()
    if len(rows) != 3 or any(len(row) != 3 or any(type(x) is not int for x in row) for row in rows):
        raise ValueError(f"a rotation must be a 3×3 matrix of ints, got {r!r}")
    return rows


def invariant_sublattices(T0: SubgroupHNF, rotations: Iterable[IntMat], d: int) -> list[SubgroupHNF]:
    """Index-d sublattices of T0 invariant under a set of integer rotations of finite order.

    Each rotation must be a 3×3 matrix of ints.  A lattice of composite
    index is split uniquely into its prime-power parts, each an integer HNF
    in T0-coordinates, which `_of_index` meets.  At a prime p that does not
    divide the order of the group P the rotations generate, a part is read
    off in closed form when `_split` knows the split of ℚ³ under P (the
    cubic and hexagonal point groups); at the other primes, and for every
    other P, the submodule descent mod p finds it, once per primitive
    lattice.  Each result takes one integer step to T0, and the list is
    sorted by (−D, basis).  Its independent check is the
    enumerate-and-filter over every HNF of index d in `tests/oracles.py`.
    """
    _check_index(d, "index")
    rots = tuple(_check_rotation(r) for r in rotations)
    if T0.rank != 3:
        raise RankDeficient("invariant_sublattices requires a rank-3 subgroup")
    return _from_t0_hnfs(T0, _of_index(_coord_rotations(T0, rots), d))


# ============================================================
# family matching
# ============================================================


def match_family(L: SubgroupHNF, frame: Frame) -> LatticeFamily:
    """The unique closed-form family instance equal to L, if one exists.

    A family with the unit H/q holds L only as n·H/q, of first pivot
    (n/g)·H₀₀ over D = q/g (`_instance_basis`), so n = L₀₀·q/(D·H₀₀); a
    hexagonal m is L's third pivot.  L matches if that one instance is L.
    """
    if L.rank != 3:
        raise RankDeficient("match_family requires a rank-3 subgroup")
    for tag in _frame(frame.name)[0]:
        H, q = _UNITS[tag]
        n, r = divmod(L.basis[0][0] * q, L.den * H[0][0])
        m = L.basis[2][2] if tag in HEX_TAGS else None
        if not r and _instance_basis(tag, n, m) == L:
            return LatticeFamily(tag, n, m)
    raise UnmatchedLattice(f"no closed-form family matches covolume {covolume(L)}")


# ============================================================
# the full normal-subgroup survey
# ============================================================


def _rotation_generators(G: SpaceGroup) -> tuple[IntMat, ...]:
    """The distinct rotations of G's generators other than I, in the generators' order."""
    return tuple(dict.fromkeys(g.rot for g in G.generators if g.rot != IDENTITY))


@lru_cache(maxsize=None)
def _family_table(T0: SubgroupHNF, frame_name: str) -> dict[str, tuple[int, int | None, SubgroupHNF, int]]:
    """The family table of T0 in a frame, derived once: tag → (u, v, L₁ = instance(tag, u, v), i₁ = [T0 : L₁]), L₁ its least instance in T0.

    u is the least n with n·B ⊆ T0 for B the unit instance's (planar) columns, and v the least
    m with m·e₃ ∈ T0 (None if cubic): lcms of denominators in T0-coordinates, as {n : n·B ⊆ T0} is closed under gcd.
    The families are in report order, by ascending i₁, and a tie raises InvariantViolation.  T0 must itself be an
    instance, as the per-index route's row of index 1 needs, and it is one iff some family has i₁ = 1: for
    T0 = instance(tag, n, m), u | n and v | m give L₁ ⊇ T0, so L₁ = T0.  Otherwise the table raises
    UnmatchedLattice, as `match_family` would.
    """
    tags, H0, q0 = _frame(frame_name)[0], _rank3_basis(T0), T0.den
    det = H0[0][0] * H0[1][1] * H0[2][2]  # lower triangular
    table = {}
    for tag in tags:
        H, q = _UNITS[tag]
        # h/q has the T0-coordinates y/(det·q) for the integer y with H0·y = det·q0·h, since det·H0⁻¹ = adj(H0)
        dens = [det * q // math.gcd(det * q, *hnf_solve(H0, [det * q0 * x for x in h])) for h in H]
        u, v = (math.lcm(*dens), None) if tag in CUBIC_TAGS else (math.lcm(*dens[:2]), dens[2])
        table[tag] = (u, v, L1 := instantiate(tag, u, v), index(L1, T0))
    indices = sorted(i1 for *_, i1 in table.values())
    if indices[0] != 1:
        raise UnmatchedLattice(f"no closed-form family matches covolume {covolume(T0)}")
    if len(set(indices)) != len(indices):
        raise InvariantViolation(f"families of equal index {indices} in T0 of covolume {covolume(T0)}")
    return dict(sorted(table.items(), key=lambda item: item[1][3]))


def _closed_form_rows(G: SpaceGroup, bound: int) -> list[tuple[SubgroupHNF, LatticeFamily, int]]:
    """The survey rows to `bound` of a record whose point group is its frame's whole rotation group, read off the family table.

    For L₁ = instance(tag, u, v) of index i₁ (`_family_table`) they are
    instance(tag, u·k) of index i₁·k³ and instance(tag, u·k, v·j) of index
    i₁·k²·j, counted first (`_row_count`) and sorted by (total index, −D, basis)
    into a new list on every call, which the caller alone holds.  They are
    every invariant L ⊆ T0.  Under O, L = r·X for r ∈ ℚ and X the cubic P, F
    or I lattice.  Under D6, ρ² − ρ + 1 = 0 on the plane W for ρ
    the 6-fold rotation, so ρ − 1 is unimodular there: x ∈ L has
    x_W = −ρ·(ρ − 1)·x ∈ L, L = (L ∩ W) ⊕ ℤ·s·e₃, and L ∩ W is a fractional
    ideal of ℤ[ω] that conjugation keeps, r·ℤ[ω] or r(1 − ω)·ℤ[ω].  T0 is
    an instance (the family table raises otherwise); then T0 ⊆ ℤ³ ∪ (ℤ³ +
    (½, ½, ½)) and each unit lattice holds e₁, e₁ + e₂ or 2e₁ + e₂, so
    r ∈ ℤ, and u | r, v | s iff L ⊆ T0.
    """
    table = _family_table(G.T0, G.frame.name)
    if (counted := _row_count(table, bound)) > _ROW_LIMIT:
        raise TorsymError(f"{G.name}: the survey to index {bound} counts at least {counted} rows, past the limit of {_ROW_LIMIT} rows")
    rows = []  # (index, −D, basis, family): distinct lattices, which sort as the per-index route's rows do
    for tag, (u, v, L1, i1) in table.items():
        for k in range(1, _root(bound // i1, 3 if v is None else 2) + 1):
            if v is None:
                basis, den = _instance_basis(tag, u * k, None)
                rows.append((i1 * k**3, -den, basis, LatticeFamily(tag, u * k)))
            else:  # the planar columns times k, and the axis column (0, 0, v) times j
                p0, p1 = _scaled(L1.basis[:2], k)
                rows += [(i1 * k * k * j, -1, (p0, p1, (0, 0, v * j)), LatticeFamily(tag, u * k, v * j)) for j in range(1, bound // (i1 * k * k) + 1)]
    rows.sort()  # in place, and each sort key gives way to its row: no second list of rows is ever held
    order = G.point_order
    for i, (d, minus_den, basis, fam) in enumerate(rows):
        rows[i] = (SubgroupHNF(basis, -minus_den), fam, order * d)
    return rows


def _root(b: int, e: int) -> int:
    """⌊b^(1/e)⌋ for b ≥ 0 and e ≥ 2, or _ROW_LIMIT + 1 if that is less: Newton's integer step from above stops there."""
    k = min(1 << -(-b.bit_length() // e), _ROW_LIMIT + 1)
    while k**e > b:
        k = ((e - 1) * k + b // k ** (e - 1)) // e
    return k


def _row_count(table: dict, bound: int) -> int:
    """The rows `_closed_form_rows` builds to `bound`, counted in integers: exactly, or as some number past
    `_ROW_LIMIT` that they reach.  As in the rows, a family's k runs to the integer root of b = ⌊bound/i₁⌋
    (`_root`), with one row per k for a cubic family and ⌊b/k²⌋ for a hexagonal one, in O(√_ROW_LIMIT)."""
    total = 0
    for _, v, _, i1 in table.values():
        b = bound // i1  # the family's rows are L₁'s to the index ⌊bound/i₁⌋ in L₁
        if v is None:
            total += _root(b, 3)
        else:  # one row per axis multiple j, and the first term alone is b
            total += b if b > _ROW_LIMIT else sum(b // (k * k) for k in range(1, _root(b, 2) + 1))
    return total


def _walked_rows(G: SpaceGroup, bound: int) -> list[tuple[SubgroupHNF, LatticeFamily, int]]:
    """The survey rows to `bound` by the per-index kernel (`_of_index`) at every index 1, …, bound in turn, each lattice matched alone."""
    coord_rots = _coord_rotations(G.T0, _rotation_generators(G))
    rows = []
    for d in range(1, bound + 1):
        rows += [(L, match_family(L, G.frame), G.point_order * d) for L in _from_t0_hnfs(G.T0, _of_index(coord_rots, d))]
    return rows


def normal_translation_subgroups(
    G: SpaceGroup, max_index: int
) -> list[tuple[SubgroupHNF, LatticeFamily, int]]:
    """All invariant sublattices of T0 up to max_index, with family and total index.

    The total index is the index in the full space group: point order times
    the lattice index inside T0.  When G's point group is its frame's whole
    rotation group, as for the six groups, the rows come from the family
    table (`_closed_form_rows`), and `verify_tables` checks them against the
    per-index route that finds every other record's (`_walked_rows`).  Each
    call builds a new list by its route, and no row outlives the caller's
    use of it; only the kernels below the routes keep their caches.
    """
    _check_index(max_index, "max_index")
    whole = G.point_order == _frame(G.frame.name)[1]
    return (_closed_form_rows if whole else _walked_rows)(G, max_index)
