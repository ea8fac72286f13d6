"""Finite-index invariant sublattices and their closed-form families."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

from .errors import RankDeficient, UnmatchedLattice
from .lattices import (
    Mat3,
    SubgroupHNF,
    _integer_frame,
    _scaled_hnf,
    covolume,
    hnf,
    hnf_columns,
    int_matvec,
    invariant_coords_matrix,
    mat_det,
    matmul,
)
from .spacegroups import Frame, SpaceGroup

# ============================================================
# closed-form lattice families
# ============================================================

CUBIC_TAGS = ("CUBIC_PRIMITIVE", "CUBIC_FACE", "CUBIC_BODY")
HEX_TAGS = ("HEX_PRIMITIVE", "HEX_ROT")
FAMILY_TAGS = CUBIC_TAGS + HEX_TAGS

T_HALF = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


@dataclass(frozen=True)
class LatticeFamily:
    """A closed-form translation-lattice family instance (tag plus parameters)."""

    tag: str
    n: int
    m: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}")
        if self.n < 1:
            raise ValueError("family parameter n must be positive")
        if self.tag in HEX_TAGS:
            if self.m is None or self.m < 1:
                raise ValueError("hexagonal families require a positive parameter m")
        elif self.m is not None:
            raise ValueError("cubic families take a single parameter")

    def instantiate(self) -> SubgroupHNF:
        return instantiate(self.tag, self.n, self.m)

    def to_json(self) -> dict:
        out = {"tag": self.tag, "n": self.n}
        if self.m is not None:
            out["m"] = self.m
        return out


def instantiate(tag: str, n: int, m: int | None = None) -> SubgroupHNF:
    """Canonical subgroup for a family tag and parameters; ValueError where LatticeFamily rejects them."""
    LatticeFamily(tag, n, m)
    if tag == "CUBIC_PRIMITIVE":
        gens = [(n, 0, 0), (0, n, 0), (0, 0, n)]
    elif tag == "CUBIC_FACE":
        gens = [(2 * n, 0, 0), (n, n, 0), (n, 0, n)]
    elif tag == "CUBIC_BODY":
        gens = [(n, 0, 0), (0, n, 0), tuple(n * t for t in T_HALF)]
    elif tag == "HEX_PRIMITIVE":
        gens = [(n, 0, 0), (0, n, 0), (0, 0, m)]
    else:
        gens = [(2 * n, n, 0), (n, 2 * n, 0), (0, 0, m)]
    return hnf(gens)


# ============================================================
# the point-group action in T0-coordinates
# ============================================================


_ROT_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@lru_cache(maxsize=None)
def _coord_rotations(T0: SubgroupHNF, rotations: tuple) -> tuple:
    """Rotation matrices rewritten in T0-coordinates (must be integral, of finite order)."""
    out = []
    for r in rotations:
        rt = invariant_coords_matrix(r, T0)
        # a finite-order integer 3×3 matrix has order 1, 2, 3, 4 or 6, so R¹² = I;
        # the descent mod p takes its eigenvalues from the 12th roots of unity
        r12 = _ROT_IDENTITY
        for _ in range(12):
            r12 = matmul(r12, rt)
        if r12 != _ROT_IDENTITY:
            raise ValueError("rotation is not of finite order")
        out.append(rt)
    return tuple(out)


def _prime_power_parts(d: int) -> list[tuple[int, int]]:
    """The factorisation of d as (prime, exponent) pairs, primes ascending."""
    parts = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            k = 0
            while d % p == 0:
                k += 1
                d //= p
            parts.append((p, k))
        p += 1
    if d > 1:
        parts.append((d, 1))
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
# T0-coordinates, which are mapped back to T0 at the end.

_Z3 = hnf(_ROT_IDENTITY)  # T0 in its own coordinates


@lru_cache(maxsize=None)
def _roots_of_unity_12(p: int) -> tuple[int, ...]:
    """The roots of x¹² − 1 in F_p, a cyclic group of order gcd(12, p − 1)."""
    order = math.gcd(12, p - 1)
    roots = {1}
    a = 2
    while len(roots) < order:
        h = pow(a, (p - 1) // order, p)
        roots = {r * pow(h, i, p) % p for r in roots for i in range(order)}
        a += 1
    return tuple(sorted(roots))


@lru_cache(maxsize=None)
def _eigenvalues_mod_p(rot: Mat3, p: int) -> tuple[int, ...]:
    """Eigenvalues in F_p of an integer matrix with R¹² = I: roots of its characteristic polynomial."""
    tr = rot[0][0] + rot[1][1] + rot[2][2]
    c2 = sum(rot[i][i] * rot[j][j] - rot[i][j] * rot[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    det = mat_det(rot)
    return tuple(x for x in _roots_of_unity_12(p) if (x**3 - tr * x * x + c2 * x - det) % p == 0)


def _kernel_mod_p(rows: Sequence[Sequence[int]], ncols: int, p: int) -> list[tuple[int, ...]]:
    """Basis of {x ∈ F_p^ncols : r·x = 0 for every row r}, by reduced row echelon form."""
    work = [[x % p for x in r] for r in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [x * inv % p for x in work[r]]
        for i in range(len(work)):
            f = work[i][c]
            if i != r and f:
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        pivots.append(c)
    out = []
    for f in range(ncols):
        if f not in pivots:
            v = [0] * ncols
            v[f] = 1
            for i, c in enumerate(pivots):
                v[c] = -work[i][f] % p
            out.append(tuple(v))
    return out


def _common_eigenspaces(
    acts: Sequence[Mat3], eigenvalues: Sequence[tuple[int, ...]], p: int
) -> list[list[tuple[int, ...]]]:
    """Bases of the nonzero subspaces of F_p³ on which every matrix acts as a scalar.

    There is one per tuple of eigenvalues, so every invariant line lies in
    exactly one of them.
    """
    spaces = [list(_Z3.basis)]
    for a, lams in zip(acts, eigenvalues):
        refined = []
        for basis in spaces:
            images = [int_matvec(a, v) for v in basis]
            for lam in lams:
                rows = [[images[j][i] - lam * basis[j][i] for j in range(len(basis))] for i in range(3)]
                coeffs = _kernel_mod_p(rows, len(basis), p)
                if coeffs:
                    refined.append(
                        [tuple(sum(cj * v[i] for cj, v in zip(c, basis)) % p for i in range(3)) for c in coeffs]
                    )
        spaces = refined
    return spaces


def _lines(basis: Sequence[tuple[int, ...]], p: int) -> list[tuple[int, ...]]:
    """One spanning vector for each line of the subspace of F_p³ with the given basis."""
    out = []
    for k, lead in enumerate(basis):
        rest = basis[k + 1 :]
        for ts in product(range(p), repeat=len(rest)):
            out.append(tuple((lead[i] + sum(t * v[i] for t, v in zip(ts, rest))) % p for i in range(3)))
    return out


@lru_cache(maxsize=None)
def _maximal_invariant(coord_rots: tuple, p: int, M: SubgroupHNF) -> tuple:
    """The maximal invariant sublattices N of an invariant M, each with [M:N].

    M and every N are integer lattices in T0-coordinates; each N is the
    preimage in M of a maximal G-submodule of M/pM.
    """
    h = _integer_frame(M)[0]  # columns are M's basis vectors
    # the action on M/pM in M's own basis
    acts = [
        tuple(tuple(x % p for x in row) for row in invariant_coords_matrix(r, M))
        for r in coord_rots
    ]
    dual_acts = [tuple(zip(*a)) for a in acts]
    lams = [_eigenvalues_mod_p(r, p) for r in coord_rots]
    lines = [v for s in _common_eigenspaces(acts, lams, p) for v in _lines(s, p)]
    # an invariant plane is the annihilator of an invariant line of the transposed action
    normals = [w for s in _common_eigenspaces(dual_acts, lams, p) for w in _lines(s, p)]
    subspaces = [_kernel_mod_p([w], 3, p) for w in normals]
    subspaces += [[v] for v in lines if all(sum(x * y for x, y in zip(w, v)) % p for w in normals)]
    if not subspaces:  # M/pM is simple: pM is the only maximal one
        subspaces = [[]]
    pm = [tuple(p * x for x in col) for col in M.basis]
    return tuple(
        (SubgroupHNF(3, hnf_columns([int_matvec(h, v) for v in s] + pm), Fraction(1)), 3 - len(s))
        for s in subspaces
    )


@lru_cache(maxsize=None)
def _invariant_p_power(coord_rots: tuple, p: int, k: int) -> frozenset:
    """All invariant sublattices of index p^k, as integer lattices in T0-coordinates."""
    if k == 0:
        return frozenset((_Z3,))
    out = set()
    for step in range(1, min(k, 3) + 1):
        for M in _invariant_p_power(coord_rots, p, k - step):
            out.update(N for N, s in _maximal_invariant(coord_rots, p, M) if s == step)
    return frozenset(out)


def _from_t0_coords(T0: SubgroupHNF, basis: Sequence[Sequence[int]]) -> SubgroupHNF:
    """The sublattice of T0 = H/q with the given integer T0-coordinate columns M: ⟨H·M⟩/q."""
    h, _, _, q = _integer_frame(T0)
    return _scaled_hnf(hnf_columns([int_matvec(h, col) for col in basis]), Fraction(1, q))


@lru_cache(maxsize=None)
def _invariant_primary(T0: SubgroupHNF, coord_rots: tuple, p: int, k: int) -> tuple:
    out = [_from_t0_coords(T0, M.basis) for M in _invariant_p_power(coord_rots, p, k)]
    out.sort(key=lambda L: (L.scale, L.basis))
    return tuple(out)


def invariant_sublattices(T0: SubgroupHNF, rotations: Iterable[Mat3], d: int) -> list[SubgroupHNF]:
    """Index-d sublattices of T0 invariant under a set of integer rotations of finite order.

    A lattice of composite index is split uniquely into its prime-power
    parts.  Each part comes from the submodule descent mod p, and coprime
    parts are recombined by L₁ ∩ L₂ = [T0:L₂]·L₁ + [T0:L₁]·L₂.  The result is
    sorted by (scale, basis).  Its independent check is the enumerate-and-filter
    over every HNF of index d in `tests/oracles.py`.
    """
    if T0.rank != 3:
        raise RankDeficient("invariant_sublattices requires a rank-3 subgroup")
    if d < 1:
        raise ValueError("index must be a positive integer")
    coord_rots = _coord_rotations(T0, tuple(tuple(tuple(row) for row in r) for r in rotations))
    if d == 1:
        return [T0]
    factors = _prime_power_parts(d)
    if len(factors) == 1:
        return list(_invariant_primary(T0, coord_rots, *factors[0]))
    out = []
    for combo in product(*(_invariant_p_power(coord_rots, p, k) for p, k in factors)):
        acc, a = combo[0].basis, factors[0][0] ** factors[0][1]
        for M, (p, k) in zip(combo[1:], factors[1:]):
            # coprime indices a, b: b·acc and a·M lie in acc ∩ M, and ua + vb = 1 shows they span it
            b = p**k
            acc = hnf_columns(
                [tuple(b * x for x in col) for col in acc] + [tuple(a * x for x in col) for col in M.basis]
            )
            a *= b
        out.append(_from_t0_coords(T0, acc))
    out.sort(key=lambda L: (L.scale, L.basis))
    return out


# ============================================================
# family matching
# ============================================================


def _exact_cbrt(x: Fraction) -> int | None:
    """The positive integer k with k³ = x, if there is one (exact at any size)."""
    if x <= 0 or x.denominator != 1:
        return None
    n = x.numerator
    lo, hi = 1, 1 << -(-n.bit_length() // 3)  # hi³ ≥ n
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**3 < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**3 == n else None


_UNIT_INSTANCES = {tag: instantiate(tag, 1, 1 if tag in HEX_TAGS else None) for tag in FAMILY_TAGS}


def match_family(L: SubgroupHNF, frame: Frame) -> LatticeFamily:
    """The unique closed-form family instance equal to L, if one exists.

    A cubic instance is n times the n = 1 instance.  A hexagonal instance is
    n·P + ℤ·m·e₃, with P the planar part of the n = m = 1 instance.
    """
    if L.rank != 3:
        raise RankDeficient("match_family requires a rank-3 subgroup")
    v = covolume(L)
    if frame.name == "CUBIC":
        for tag, cube in (
            ("CUBIC_PRIMITIVE", v),
            ("CUBIC_FACE", v / 2),
            ("CUBIC_BODY", 2 * v),
        ):
            n = _exact_cbrt(cube)
            unit = _UNIT_INSTANCES[tag]
            if n is not None and _scaled_hnf(unit.basis, n * unit.scale) == L:
                return LatticeFamily(tag, n)
    elif L.scale == 1:
        # both hexagonal families are integer lattices that meet the vertical axis
        # in m·ℤ·e₃, the third HNF pivot, with covolume n²·m (HEX_PRIMITIVE) or 3·n²·m (HEX_ROT)
        m = L.basis[2][2]
        for tag, quad in (("HEX_PRIMITIVE", v), ("HEX_ROT", v / 3)):
            if quad.denominator != 1 or quad.numerator % m:
                continue
            n = math.isqrt(quad.numerator // m)
            planar = tuple(tuple(n * x for x in col) for col in _UNIT_INSTANCES[tag].basis[:2])
            if n * n * m == quad and L.basis == (*planar, (0, 0, m)):
                return LatticeFamily(tag, n, m)
    raise UnmatchedLattice(f"no closed-form family matches covolume {v}")


# ============================================================
# the full normal-subgroup survey
# ============================================================


def _rotation_generators(G: SpaceGroup) -> tuple[Mat3, ...]:
    seen = []
    for g in G.generators:
        if g.rot != _ROT_IDENTITY and g.rot not in seen:
            seen.append(g.rot)
    return tuple(seen)


def normal_translation_subgroups(
    G: SpaceGroup, max_index: int
) -> list[tuple[SubgroupHNF, LatticeFamily, int]]:
    """All invariant sublattices of T0 up to max_index, with family and total index.

    The total index is the index in the full space group: point order times
    the lattice index inside T0.
    """
    if max_index < 1:
        raise ValueError("max_index must be a positive integer")
    rots = _rotation_generators(G)
    out = []
    for d in range(1, max_index + 1):
        for L in invariant_sublattices(G.T0, rots, d):
            out.append((L, match_family(L, G.frame), G.point_order * d))
    return out
