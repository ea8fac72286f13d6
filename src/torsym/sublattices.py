"""Finite-index invariant sublattices and their closed-form families."""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product
from operator import itemgetter
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

from .errors import InvariantViolation, RankDeficient, UnmatchedLattice
from .lattices import (
    IDENTITY,
    Mat3,
    SubgroupHNF,
    _from_t0_hnfs,
    adjugate,
    basis_frame,
    covolume,
    frame_coords_matrix,
    hnf,
    hnf_columns,
    int_matvec,
    invariant_coords_matrix,
    mat_det,
    matmul,
    rotation_axis,
)
from .spacegroups import Frame, SpaceGroup

# ============================================================
# closed-form lattice families
# ============================================================

CUBIC_TAGS = ("CUBIC_PRIMITIVE", "CUBIC_FACE", "CUBIC_BODY")
HEX_TAGS = ("HEX_PRIMITIVE", "HEX_ROT")
FAMILY_TAGS = CUBIC_TAGS + HEX_TAGS

@dataclass(frozen=True)
class LatticeFamily:
    """A closed-form translation-lattice family instance (tag plus parameters)."""

    tag: str
    n: int
    m: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}")
        _check_index(self.n, "family parameter n")
        if self.tag in HEX_TAGS:
            if self.m is None:
                raise ValueError("hexagonal families require a positive parameter m")
            _check_index(self.m, "family parameter m")
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
        if n % 2:
            # n·(1/2, 1/2, 1/2) over den 2; the content n of these columns is odd, so the record is canonical
            return SubgroupHNF(hnf_columns([(2 * n, 0, 0), (0, 2 * n, 0), (n, n, n)]), 2)
        gens = [(n, 0, 0), (0, n, 0), (n // 2, n // 2, n // 2)]
    elif tag == "HEX_PRIMITIVE":
        gens = [(n, 0, 0), (0, n, 0), (0, 0, m)]
    else:
        gens = [(2 * n, n, 0), (n, 2 * n, 0), (0, 0, m)]
    return hnf(gens)


# ============================================================
# the point-group action in T0-coordinates
# ============================================================


@lru_cache(maxsize=None)
def _coord_rotations(T0: SubgroupHNF, rotations: tuple) -> tuple:
    """Rotation matrices rewritten in T0-coordinates (must be integral and generate a finite group)."""
    out = tuple(invariant_coords_matrix(r, T0) for r in rotations)
    if any(abs(mat_det(r)) != 1 for r in out):
        raise ValueError("rotation is not of finite order")
    # `_split` raises unless they generate a finite group, whose elements have
    # order 1, 2, 3, 4 or 6: R¹² = I, so the descent mod p takes its
    # eigenvalues from the 12th roots of unity
    _split(out)
    return out


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


def _primes() -> Iterator[int]:
    """The primes, ascending and without end: each segment [n, 2n) is sieved by the primes below √(2n)."""
    primes: list[int] = []
    n = 2
    while True:
        segment = bytearray([1]) * n
        for p in primes:
            if p * p >= 2 * n:
                break
            segment[-n % p :: p] = bytes(len(range(-n % p, n, p)))
        new = [n + i for i in compress(range(n), segment)]
        primes += new
        yield from new
        n *= 2


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

def _roots_of_unity_12(p: int) -> tuple[int, ...]:
    """The roots of x¹² − 1 in F_p: the powers of a generator h of their cyclic group.

    The group has order n = gcd(12, p − 1).  h = a^((p − 1)/n) has order n
    unless h^(n/q) = 1 for a prime q | n, and a primitive root a passes.
    """
    n = math.gcd(12, p - 1)
    h = next(
        h
        for h in (pow(a, (p - 1) // n, p) for a in range(2, p + 1))
        if all(pow(h, n // q, p) != 1 for q in (2, 3) if n % q == 0)
    )
    return tuple(sorted(pow(h, i, p) for i in range(n)))


@lru_cache(maxsize=None)
def _splitting_order(coord_rots: tuple, p: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(index, eigenvalues in F_p) of each rotation, in the order the descent splits F_p³ by them.

    They are the roots of x³ − tr·x² + c₂·x − det among the 12th roots of
    unity (R¹² = I), and do not change with the basis, so one order serves
    every lattice.  A rotation whose roots are all simple has only lines as
    eigenspaces; the one with the fewest goes first, so F_p³ falls into
    lines after the fewest kernels.
    """
    roots = _roots_of_unity_12(p)
    keyed = []
    for k, r in enumerate(coord_rots):
        tr = r[0][0] + r[1][1] + r[2][2]
        c2 = sum(row[i] for i, row in enumerate(adjugate(r)))
        det = mat_det(r)
        lams = tuple(x for x in roots if (((x - tr) * x + c2) * x - det) % p == 0)
        keyed.append((not all(((3 * x - 2 * tr) * x + c2) % p for x in lams), len(lams), k, lams))
    return tuple((k, lams) for _, _, k, lams in sorted(keyed))


def _cross(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, int, int]:
    """The cross product a × b mod p: zero exactly when a and b are parallel in F_p³."""
    return (
        (a[1] * b[2] - a[2] * b[1]) % p,
        (a[2] * b[0] - a[0] * b[2]) % p,
        (a[0] * b[1] - a[1] * b[0]) % p,
    )


def _plane(r: Sequence[int], p: int) -> list[tuple[int, ...]]:
    """Basis of the plane {x ∈ F_p³ : r·x = 0} for r ≢ 0."""
    a, b, c = (x % p for x in r)
    if a:
        return [(-b % p, a, 0), (-c % p, 0, a)]
    if b:
        return [(1, 0, 0), (0, -c % p, b)]
    return [(1, 0, 0), (0, 1, 0)]


def _eigenspace(a: Mat3, basis: Sequence[tuple[int, ...]], lam: int, p: int) -> list[tuple[int, ...]]:
    """Basis of {v ∈ span(basis) : a·v ≡ λ·v (mod p)} for an eigenvalue λ, in closed form.

    The span is F_p³ (the standard basis) or a plane ⟨u, w⟩.  On F_p³,
    a − λ has rank at most 2: a column of adj(a − λ) nonzero mod p spans the
    kernel, as in `rotation_axis`, and if there is none the kernel is the
    plane orthogonal to a nonzero row.  On ⟨u, w⟩, x·u + y·w lies in the kernel
    when x·c₁ + y·c₂ ≡ 0 for cᵢ the images under a − λ, which has a
    nonzero solution only when c₁ ∥ c₂.
    """
    if len(basis) == 3:
        rows = [[(a[i][j] - lam * (i == j)) % p for j in range(3)] for i in range(3)]
        for col in zip(*adjugate(rows)):
            if any(x % p for x in col):
                return [tuple(x % p for x in col)]
        r = next((r for r in rows if any(r)), None)
        return list(basis) if r is None else _plane(r, p)
    u, w = basis
    c1, c2 = ([(x - lam * y) % p for x, y in zip(int_matvec(a, v), v)] for v in basis)
    if any(_cross(c1, c2, p)):
        return []
    i = next((i for i in range(3) if c1[i] or c2[i]), None)
    if i is None:
        return list(basis)
    x, y = c2[i], -c1[i]
    return [tuple((x * s + y * t) % p for s, t in zip(u, w))]


def _invariant_lines(
    acts: Sequence[Mat3], order: Sequence[tuple[int, tuple[int, ...]]], p: int
) -> list[list[tuple[int, ...]]]:
    """The lines of F_p³ that every matrix maps to itself, one spanning vector each, grouped by eigenspace.

    Each such line lies in exactly one subspace on which every matrix acts
    as a scalar, one per tuple of eigenvalues.  The matrices split F_p³ in
    the given order of (index, eigenvalues); a line ⟨v⟩ needs one product
    per matrix, since a·v ≡ λ·v holds for some λ exactly when a·v × v ≡ 0.
    A subspace lists each of its lines once: a basis vector plus a
    combination of the later ones, so it has one line exactly when it is one.
    """
    spaces = [list(IDENTITY)]
    for i, lams in order:
        a, refined = acts[i], []
        for basis in spaces:
            if len(basis) == 1:
                if not any(_cross(int_matvec(a, basis[0]), basis[0], p)):
                    refined.append(basis)
            else:
                refined += filter(None, (_eigenspace(a, basis, lam, p) for lam in lams))
        spaces = refined
    out = []
    for basis in spaces:
        out.append([])
        for k, lead in enumerate(basis):
            rest = basis[k + 1 :]
            for ts in product(range(p), repeat=len(rest)):
                out[-1].append(tuple((lead[i] + sum(t * v[i] for t, v in zip(ts, rest))) % p for i in range(3)))
    return out


def _scaled(M: tuple, c: int) -> tuple:
    """c·M for a column HNF M and c ≥ 1: again a column HNF."""
    return tuple(tuple(c * x for x in col) for col in M)


def _preimage(M: tuple, s: Sequence[tuple[int, ...]], p: int) -> tuple:
    """The column HNF of the preimage in M of the subspace of M/pM with basis s."""
    h = tuple(zip(*M))  # columns are M's basis vectors
    return hnf_columns([*(int_matvec(h, v) for v in s), *_scaled(M, p)])


def _primitive(M: tuple) -> tuple[int, tuple]:
    """(c, M₀) with M = c·M₀ for c the content of M's basis."""
    c = math.gcd(*(x for col in M for x in col))
    return c, M if c == 1 else tuple(tuple(x // c for x in col) for col in M)


@lru_cache(maxsize=None)
def _maximal_steps(coord_rots: tuple, p: int, M: tuple) -> tuple:
    """(step, N) for every maximal invariant sublattice N of an invariant M, with [M:N] = p^step.

    M and every N are integer column HNF bases in T0-coordinates; N is the
    preimage of a maximal G-submodule of M/pM.  Step 1: an invariant plane,
    the annihilator of an invariant line w of the transposed action.  Step
    2: an invariant line in no invariant plane.  Step 3: pM, when M/pM is
    simple.  The rotations act on M, for H its basis, by H⁻¹·r·H.
    """
    acts = [frame_coords_matrix(r, basis_frame(M)) for r in coord_rots]
    if None in acts:
        raise InvariantViolation("a lattice of the descent is not invariant")
    order = _splitting_order(coord_rots, p)
    dual = _invariant_lines([tuple(zip(*a)) for a in acts], order, p)
    normals = [w for ws in dual for w in ws]
    # ⟨v⟩ lies in the plane of each normal w ⊥ v.  A dual eigenspace of two or more dimensions
    # meets every plane v^⊥, so then every line lies in a plane, and the lines are not listed
    spaces = _invariant_lines(acts, order, p) if len(normals) == len(dual) else []
    lines = [v for vs in spaces for v in vs if all(sum(x * y for x, y in zip(w, v)) % p for w in normals)]
    if not normals and not lines:  # M/pM is simple: pM, already a column HNF, is the only maximal one
        return ((3, _scaled(M, p)),)
    planes = [(1, _preimage(M, _plane(w, p), p)) for w in normals]
    return (*planes, *((2, _preimage(M, [v], p)) for v in lines))


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

    `parts` holds (dim V, basis of ℤ³ ∩ V) per component V, `step` the gcd of
    the dims: ℚ³ at norm 1, where it is absolutely irreducible (cubic P); at
    norm 2 (dihedral P), a line ℓ on which P acts by a sign character ψ and
    the absolutely irreducible plane W = ker Σ_g ψ(g)·g.  A rotation g of
    order 3, 4 or 6 has ψ(g) = 1, so ℓ = ker(g − I) and W = im(g − I) ⊥ ker(gᵀ − I).
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
    p^a·Λᵢ are the only invariant sublattices of Λᵢ of p-power index.  The
    term p^max a·ℤ³ makes the sum right at every other prime.
    """
    split = _split(coord_rots)
    if not split.parts or split.order % p == 0:
        return _descent_p_power(coord_rots, p, k)
    out = []
    for a in product(range(k + 1), repeat=len(split.parts)):
        if sum(x * dim for x, (dim, _) in zip(a, split.parts)) == k:
            gens = [tuple(p**x * e for e in col) for x, (_, basis) in zip(a, split.parts) for col in basis]
            out.append(hnf_columns(gens + [tuple(p ** max(a) * e for e in col) for col in IDENTITY]))
    return tuple(out)


def _crt(r: int, m: int, s: int, n: int) -> int:
    """The x in [0, m·n) with x ≡ r (mod m) and x ≡ s (mod n), for coprime m and n."""
    return (r + m * ((s - r) * pow(m, -1, n) % n)) % (m * n)


def _coprime_meet(A: tuple, B: tuple) -> tuple:
    """The column HNF C of A ∩ B for full-rank integer column HNFs A, B of coprime indices.

    By the CRT ℤ³/C ≅ ℤ³/A × ℤ³/B, also on {x₀ = 0} and {x₀ = x₁ = 0}, so the
    pivots multiply: cᵢᵢ = aᵢᵢ·bᵢᵢ.  (0, c₁₁, c₂₁) lies in A iff it is
    b₁₁·A₁ + ℤ·A₂, i.e. c₂₁ ≡ b₁₁·a₂₁ (mod a₂₂); (c₀₀, c₁₀, c₂₀) lies in A iff
    it is b₀₀·A₀ + s·A₁ + ℤ·A₂, i.e. c₁₀ ≡ b₀₀·a₁₀ (mod a₁₁), which fixes
    s = (c₁₀ − b₀₀·a₁₀)/a₁₁, and c₂₀ ≡ b₀₀·a₂₀ + s·a₂₁ (mod a₂₂).  B gives the
    same congruences with a and b swapped, and each entry is their CRT
    solution in [0, pivot of its row), c₂₁ and c₁₀ first, then c₂₀.
    """
    (a00, a10, a20), (_, a11, a21), (_, _, a22) = A
    (b00, b10, b20), (_, b11, b21), (_, _, b22) = B
    c21 = _crt(b11 * a21, a22, a11 * b21, b22)
    c10 = _crt(b00 * a10, a11, a00 * b10, b11)
    s, t = (c10 - b00 * a10) // a11, (c10 - a00 * b10) // b11
    c20 = _crt(b00 * a20 + s * a21, a22, a00 * b20 + t * b21, b22)
    return ((a00 * b00, c10, c20), (0, a11 * b11, c21), (0, 0, a22 * b22))


def _check_index(d, name: str) -> None:
    if type(d) is not int or d < 1:
        raise ValueError(f"{name} must be a positive integer, got {d!r}")


def _exponents(split: SimpleNamespace, p: int, kmax: int) -> range:
    """The exponents k ≤ kmax at which p^k can be the index of an invariant lattice.

    Every k where the descent applies; where the closed form does, only the
    k = Σᵢ aᵢ·dim Vᵢ, the multiples of the gcd `step` of the dims.
    """
    e = split.step if split.parts and split.order % p else 1
    return range(e, kmax + 1, e)


def _walk(coord_rots: tuple, powers: Iterable[tuple[int, range]], lo: int, hi: int) -> Iterator[tuple[int, tuple]]:
    """(d, integer HNFs in T0-coordinates) for each lo < d ≤ hi that has an invariant lattice.

    d runs over the products of one p^k per prime, for (p, ks) in powers
    and k in ks; powers must come by ascending least index p^min ks, and is
    read only as far as that index stays within hi.  A lattice of index
    m·p^k, with m made of primes read before p, is the meet of one of index
    m and one of index p^k (`_coprime_meet`), so the walk goes depth first
    and meets each part once, on the way down.  A path takes its primes in
    descending order, so it needs none that is not read yet, and the
    indices come in walk order, not ascending.  An index up to lo is met
    only on the way to a child.
    """
    seen: list[tuple[int, range, int]] = []  # (p, ks, least index p^min ks), as read

    def visit(m: int, meets: tuple, i: int) -> Iterator[tuple[int, tuple]]:
        p, ks, _ = seen[i]
        for k in ks:
            d = m * p**k
            if d > hi:
                break
            if d <= lo and (i == 0 or d * seen[0][2] > hi):
                continue
            part = _invariant_p_power(coord_rots, p, k)
            if part:
                # at m = 1 the part is its own meet, the tuple the cache holds
                lattices = part if m == 1 else tuple(_coprime_meet(A, B) for A in meets for B in part)
                if d > lo:
                    yield d, lattices
                for j in range(i):
                    if d * seen[j][2] > hi:
                        break
                    yield from visit(d, lattices, j)

    if lo < 1 <= hi:
        yield 1, (IDENTITY,)
    for p, ks in powers:
        least = p**ks.start
        if least > hi:
            break
        if seen and least < seen[-1][2]:
            raise InvariantViolation("prime powers reached the walk out of the order of their least index")
        seen.append((p, ks, least))
        yield from visit(1, (IDENTITY,), len(seen) - 1)


def _check_rotation(r) -> Mat3:
    """r as a tuple of row tuples; ValueError naming r unless it is a 3×3 matrix of ints."""
    try:
        rows = tuple(map(tuple, r))
    except TypeError:  # r or one of its rows is not iterable
        rows = ()
    if len(rows) != 3 or any(len(row) != 3 or any(type(x) is not int for x in row) for row in rows):
        raise ValueError(f"a rotation must be a 3×3 matrix of ints, got {r!r}")
    return rows


def invariant_sublattices(T0: SubgroupHNF, rotations: Iterable[Mat3], d: int) -> list[SubgroupHNF]:
    """Index-d sublattices of T0 invariant under a set of integer rotations of finite order.

    Each rotation must be a 3×3 matrix of ints.  A lattice of composite
    index is split uniquely into its prime-power parts, each an integer HNF
    in T0-coordinates.  At a prime p that does not divide the order of the
    group P the rotations generate, a part is read off in closed form when
    `_split` knows the split of ℚ³ under P (the cubic and hexagonal point
    groups); at the other primes, and for every other P, the submodule
    descent mod p finds it, once per primitive lattice.  The survey's walker
    meets coprime parts in closed form by the CRT (`_coprime_meet`), here
    over the prime powers of d alone, and each result takes one integer
    step to T0.  It is sorted by (−D, basis).  Its independent check is
    the enumerate-and-filter over every HNF of index d in `tests/oracles.py`.
    """
    _check_index(d, "index")
    rots = tuple(_check_rotation(r) for r in rotations)
    if T0.rank != 3:
        raise RankDeficient("invariant_sublattices requires a rank-3 subgroup")
    coord_rots = _coord_rotations(T0, rots)
    split = _split(coord_rots)
    # a prime whose exponent cannot carry a part drops out, and d is never reached
    parts = sorted((p**k, p, k) for p, k in _prime_power_parts(d) if k in _exponents(split, p, k))
    walk = _walk(coord_rots, [(p, range(k, k + 1)) for _, p, k in parts], d - 1, d)
    return _from_t0_hnfs(T0, (M for _, lattices in walk for M in lattices))


# ============================================================
# family matching
# ============================================================


def match_family(L: SubgroupHNF, frame: Frame) -> LatticeFamily:
    """The unique closed-form family instance equal to L, if one exists.

    Each n = 1 instance is B/u with B of content 1 and first pivot 1.  So a
    cubic instance n·B/u has the canonical basis k·B over D = u/g, for
    g = gcd(n, u) and k = n/g: k is L's first pivot and n = k·u/D.  A
    hexagonal instance is n·P + ℤ·m·e₃, with P the planar part of B: n is
    L's first pivot and m its third.  With L's columns (k, a₁, a₂),
    (0, b₁, b₂) and (0, 0, c₂), each family is read off a₁, a₂, b₁, b₂ and
    c₂ as multiples of k, with no instance built.
    """
    if L.rank != 3:
        raise RankDeficient("match_family requires a rank-3 subgroup")
    D = L.den
    (k, a1, a2), (_, b1, b2), (_, _, c2) = L.basis
    if frame.name == "CUBIC":
        if a1 == 0 and b1 == k and D == 1:
            if a2 == b2 == 0 and c2 == k:
                return LatticeFamily("CUBIC_PRIMITIVE", k)
            if a2 == b2 == k and c2 == 2 * k:
                return LatticeFamily("CUBIC_FACE", k)
        elif a1 == a2 == k and b1 == c2 == 2 * k and b2 == 0:
            n = 2 * k // D
            if D * math.gcd(n, 2) == 2:
                return LatticeFamily("CUBIC_BODY", n)
    elif D == 1 and a2 == b2 == 0:
        # both hexagonal families are integer lattices
        if a1 == 0 and b1 == k:
            return LatticeFamily("HEX_PRIMITIVE", k, c2)
        if a1 == 2 * k and b1 == 3 * k:
            return LatticeFamily("HEX_ROT", k, c2)
    raise UnmatchedLattice(f"no closed-form family matches covolume {covolume(L)}")


# ============================================================
# the full normal-subgroup survey
# ============================================================


def _rotation_generators(G: SpaceGroup) -> tuple[Mat3, ...]:
    return tuple(dict.fromkeys(g.rot for g in G.generators if g.rot != IDENTITY))


@lru_cache(maxsize=None)
def _survey(T0: SubgroupHNF, coord_rots: tuple, frame_name: str) -> SimpleNamespace:
    """The stored survey of T0 under one set of rotations, in one frame, grown on demand.

    `rows` holds (L, family, total index |P|·d) for every index d ≤ `bound`
    in T0, in the order `normal_translation_subgroups` returns them; an
    index with no lattice leaves nothing.  The rotations fix |P|, and
    `match_family` reads only the frame's name.
    """
    return SimpleNamespace(bound=0, rows=[], lock=threading.Lock())


def normal_translation_subgroups(
    G: SpaceGroup, max_index: int
) -> list[tuple[SubgroupHNF, LatticeFamily, int]]:
    """All invariant sublattices of T0 up to max_index, with family and total index.

    The total index is the index in the full space group: point order times
    the lattice index inside T0.  The survey of (T0, rotations, frame) is
    stored and grows by prime-power parts: one walk meets the parts of every
    index past the stored bound, with the descent run once per primitive
    lattice, and each index's lattices go to the rows in ascending order.
    The answer is the first rows, a new list of the stored row tuples.
    """
    _check_index(max_index, "max_index")
    coord_rots = _coord_rotations(G.T0, _rotation_generators(G))
    survey = _survey(G.T0, coord_rots, G.frame.name)
    with survey.lock:  # a second caller must not append the same index again
        if max_index > survey.bound:
            split = _split(coord_rots)
            # the primes ascend and so do their least indices p^e: e = step = 3 only for a cubic
            # P, whose order 12, 24 or 48 gives e = 1 at p = 2 and 3; so the walk reads the primes
            # up to the first p with p^e > max_index (p³ > max_index for a cubic class), no further
            powers = ((p, _exponents(split, p, max_index.bit_length())) for p in _primes())
            rows = []
            # each index's raw HNFs go once its rows hold them (for T0 = ℤ³ the rows keep the same tuples)
            for d, lattices in _walk(coord_rots, powers, survey.bound, max_index):
                rows += [(L, match_family(L, G.frame), G.point_order * d) for L in _from_t0_hnfs(G.T0, lattices)]
            rows.sort(key=itemgetter(2))  # stable: each index keeps its (−D, basis) order
            if survey.rows:
                survey.rows += rows
            else:  # the first walk's list becomes the store, with no copy
                survey.rows = rows
            survey.bound = max_index
    return survey.rows[: bisect_right(survey.rows, G.point_order * max_index, key=itemgetter(2))]
