"""Integer Hermite-normal-form algebra of translation subgroups (lattices), with a rational boundary.

Every subgroup of translation vectors is kept as the canonical integer
Hermite normal form of its scaled basis over one common denominator, so that
equality, membership, index and join are exact and deterministic.  The
kernels run on integer vectors and 3×3 matrices; `Fraction` appears only at
the boundary, where rational vectors come in and covolumes and points go
out.  Convention: column-style HNF, lower triangular, pivot rows ascending,
positive pivots, entries left of a pivot reduced into [0, pivot).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import InvariantViolation, NotASubgroup, RankDeficient

__all__ = ["SubgroupHNF", "TRIVIAL_SUBGROUP", "covolume", "hnf", "index", "join", "member"]

Vec3 = tuple[Fraction, Fraction, Fraction]
IntVec = tuple[int, int, int]
IntMat = tuple[tuple[int, ...], ...]

IDENTITY: IntMat = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# ============================================================
# integer vectors and 3×3 matrices, and the rational boundary into them
# (row-major storage; for linear maps the columns are the images of the
# basis vectors)
# ============================================================


def _over_common_denominator(v: Sequence) -> tuple[tuple[int, ...], int]:
    """Integer numerators and their least positive common denominator for a rational 3-vector; ValueError naming any other."""
    if len(v) != 3:
        raise ValueError(f"expected a 3-vector, got {v!r}")
    if all(type(x) is int for x in v):
        return tuple(v), 1
    # an int carries numerator and denominator too, so only other types are converted
    fr = [x if type(x) is int else as_fraction(x) for x in v]
    den = math.lcm(*(f.denominator for f in fr))
    return tuple(f.numerator * (den // f.denominator) for f in fr), den


def as_fraction(x) -> Fraction:
    """x as a Fraction; ValueError for an infinity, as `Fraction` gives for NaN and other non-numbers."""
    try:
        return x if type(x) is Fraction else Fraction(x)
    except OverflowError:
        raise ValueError(f"{x!r} is not a finite number") from None


def as_int(x) -> int:
    """x as an int; ValueError unless x equals one, so also for None, a list, a string, an infinity or NaN."""
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"expected an integer, got {x!r}")


def int_matvec(m: Sequence[Sequence[int]], x: Sequence[int]) -> tuple[int, int, int]:
    """Product of an integer 3×3 matrix and an integer vector."""
    x0, x1, x2 = x
    return (
        m[0][0] * x0 + m[0][1] * x1 + m[0][2] * x2,
        m[1][0] * x0 + m[1][1] * x1 + m[1][2] * x2,
        m[2][0] * x0 + m[2][1] * x1 + m[2][2] * x2,
    )


def matmul(a: IntMat, b: IntMat) -> IntMat:
    """Product of two integer 3×3 matrices."""
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return tuple(
        (
            r[0] * b00 + r[1] * b10 + r[2] * b20,
            r[0] * b01 + r[1] * b11 + r[2] * b21,
            r[0] * b02 + r[1] * b12 + r[2] * b22,
        )
        for r in a
    )


def mat_det(m: IntMat) -> int:
    """Determinant of an integer 3×3 matrix."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def adjugate(m: Sequence[Sequence[int]]) -> IntMat:
    """adj(m), the transposed matrix of cofactors: m·adj(m) = adj(m)·m = det(m)·I."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def unimodular_inverse(m: Sequence[Sequence[int]]) -> IntMat:
    """m⁻¹ = det(m)·adj(m) for an integer matrix of determinant ±1; InvariantViolation for any other."""
    d = mat_det(m)
    if d not in (1, -1):
        raise InvariantViolation(f"matrix of determinant {d} is not unimodular")
    return tuple(tuple(d * x for x in row) for row in adjugate(m))


def primitive_integer(v: Sequence) -> tuple[int, int, int]:
    """Scale a nonzero rational vector to a primitive integer vector, first nonzero entry positive."""
    ints = _over_common_denominator(v)[0]
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    ints = [e // g for e in ints]
    lead = next(e for e in ints if e)
    if lead < 0:
        ints = [-e for e in ints]
    return (ints[0], ints[1], ints[2])


@lru_cache(maxsize=None)
def rotation_axis(rot: IntMat) -> IntVec:
    """The axis of R where 1 is a simple eigenvalue: a nonzero column of adj(R − I), since (R − I)·adj(R − I) = 0."""
    adj = adjugate([[rot[i][j] - (i == j) for j in range(3)] for i in range(3)])
    return primitive_integer(next(col for col in zip(*adj) if any(col)))


# ============================================================
# canonical subgroups of rational translation vectors
# ============================================================


def checked_record(name: str, fields: str) -> type:
    """A namedtuple base whose `_make`, and so `_replace`, `copy` and every pickle protocol, builds through the subclass's `__new__` and its checks."""

    def _make(cls, values):  # named, as a pickle finds the bound classmethod by its name
        return cls(*values)

    base = namedtuple(name, fields)
    base._make, base.__reduce__ = classmethod(_make), lambda self: (type(self)._make, (tuple(self),))
    return base


class SubgroupHNF(checked_record("SubgroupHNF", "basis den")):
    """A finitely generated subgroup of rational 3-vectors in canonical form.

    The stored value is the pair (basis, den): den = D is the minimal
    positive integer such that D·L is an integer lattice, and basis the
    canonical integer column HNF of D·L, so L is basis/D at scale 1/D.  Equal
    subgroups always have bit-identical representations; the constructor
    rejects any other pair.
    """

    __slots__ = ()

    def __new__(cls, basis: tuple[tuple[int, int, int], ...], den: int) -> SubgroupHNF:
        # each check is O(1): the lift path builds a lattice per call, so the
        # canonical form is checked in place instead of recomputed
        if type(basis) is not tuple:
            raise ValueError("basis must be a tuple of columns")
        # the rank-3 shape of every survey row, family instance, join and T0 in straight-line code: three
        # integer 3-tuples, zeros above the diagonal, a positive first pivot and each entry left of a pivot in
        # [0, pivot), which makes the other two positive; any other basis takes the column loop, which names each fault
        canonical = False
        if len(basis) == 3:
            h0, h1, h2 = basis
            if type(h0) is type(h1) is type(h2) is tuple and len(h0) == len(h1) == len(h2) == 3:
                (a, b, c), (x, d, e), (y, z, f) = basis
                canonical = (
                    type(a) is type(b) is type(c) is type(d) is type(e) is type(f) is type(x) is type(y) is type(z) is int
                    and not (x or y or z) and a > 0 and 0 <= b < d and 0 <= c < f and 0 <= e < f
                )
        if not canonical:
            pivot = -1
            for j, col in enumerate(basis):
                if type(col) is not tuple or len(col) != 3:
                    raise ValueError("basis columns must be integer 3-tuples")
                c0, c1, c2 = col
                if type(c0) is not int or type(c1) is not int or type(c2) is not int:
                    raise ValueError("basis columns must be integer 3-tuples")
                # pivot rows ascend, so a fourth column has nowhere to go
                r = 0 if c0 else 1 if c1 else 2
                p = col[r]
                if r <= pivot or p <= 0:
                    raise ValueError("basis must be a column HNF: ascending pivot rows, positive pivots")
                for prev in basis[:j]:
                    if not 0 <= prev[r] < p:
                        raise ValueError("basis must be a column HNF: entries left of a pivot in [0, pivot)")
                pivot = r
        # type(), not isinstance: True is an int and would pass for D = 1
        if type(den) is not int or den <= 0:
            raise ValueError("den must be a positive integer D")
        # the content of the basis is the gcd of its entries, read off the unpacked ones of the rank-3 shape,
        # where x, y and z are 0; D = 1 is coprime to every content
        if den != 1 and (math.gcd(den, a, b, c, d, e, f) if canonical else math.gcd(den, *(v for col in basis for v in col))) != 1:
            raise ValueError("den must be minimal: D and the basis content must be coprime")
        return tuple.__new__(cls, (basis, den))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def vectors(self) -> list[Vec3]:
        """Actual basis vectors (basis columns divided by D)."""
        return [tuple(Fraction(x, self.den) for x in col) for col in self.basis]

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "scale": str(Fraction(1, self.den)),
            "basis": [list(col) for col in self.basis],
        }


TRIVIAL_SUBGROUP = SubgroupHNF((), 1)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = a·x + b·y and g ≥ 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf_columns(cols: Iterable[Sequence[int]]) -> tuple[tuple[int, int, int], ...]:
    """Canonical column HNF of the integer lattice generated by the given columns."""
    work = [list(c) for c in cols if any(c)]
    npiv = 0
    for row in range(3):
        j0 = next((j for j in range(npiv, len(work)) if work[j][row]), None)
        if j0 is None:
            continue
        work[npiv], work[j0] = work[j0], work[npiv]
        for j in range(npiv + 1, len(work)):
            a, b = work[npiv][row], work[j][row]
            if b == 0:
                continue
            g, x, y = _xgcd(a, b)
            u, v = a // g, b // g
            colp, colj = work[npiv], work[j]
            for r in range(3):
                p, q = colp[r], colj[r]
                colp[r] = x * p + y * q
                colj[r] = -v * p + u * q
        if work[npiv][row] < 0:
            work[npiv] = [-e for e in work[npiv]]
        p = work[npiv][row]
        for j in range(npiv):
            q = work[j][row] // p
            if q:
                for r in range(3):
                    work[j][r] -= q * work[npiv][r]
        npiv += 1
    return tuple(tuple(c) for c in work[:npiv])  # type: ignore[return-value]


def hnf(generators: Iterable[Sequence]) -> SubgroupHNF:
    """Canonical form of the subgroup generated by rational (or integer) 3-vectors."""
    generators = list(generators)
    if all(type(x) is int for g in generators for x in g):
        return SubgroupHNF(hnf_columns(generators), 1)
    gens = [tuple(map(as_fraction, g)) for g in generators]
    gens = [g for g in gens if any(g)]
    if not gens:
        return TRIVIAL_SUBGROUP
    # minimal D clearing denominators: every generator lies in the subgroup,
    # so no smaller D can make the whole subgroup integral
    d = math.lcm(*(x.denominator for g in gens for x in g))
    return SubgroupHNF(hnf_columns([[int(x * d) for x in g] for g in gens]), d)


def hnf_reduce(x: Sequence[int], basis: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Reduce an integer vector modulo the lattice of a canonical column HNF basis.

    Each column in turn brings the entry in its pivot row into [0, pivot).
    The result is the same on each coset of the lattice, and zero on the lattice.
    """
    w0, w1, w2 = x
    for c0, c1, c2 in basis:
        if c0:
            q = w0 // c0
        elif c1:
            q = w1 // c1
        else:
            q = w2 // c2
        if q:
            w0, w1, w2 = w0 - q * c0, w1 - q * c1, w2 - q * c2
    return (w0, w1, w2)


def _in_lattice(nums: Sequence[int], den: int, sup: SubgroupHNF) -> bool:
    """True iff nums/den lies in sup = H/q: den divides q·nums and q·nums/den reduces to zero by H."""
    x0, x1, x2 = nums
    q = sup.den
    w0, w1, w2 = q * x0, q * x1, q * x2
    if den != 1:
        if w0 % den or w1 % den or w2 % den:
            return False
        w0, w1, w2 = w0 // den, w1 // den, w2 // den
    return not any(hnf_reduce((w0, w1, w2), sup.basis))


def member(v: Sequence, sub: SubgroupHNF) -> bool:
    """True iff the rational vector v lies in the subgroup."""
    return _in_lattice(*_over_common_denominator(v), sub)


def covolume(sub: SubgroupHNF) -> Fraction:
    """Absolute determinant of the actual basis (rank 3 only)."""
    if sub.rank != 3:
        raise RankDeficient("covolume requires rank 3")
    # a canonical rank-3 basis has its pivots on the diagonal
    return Fraction(sub.basis[0][0] * sub.basis[1][1] * sub.basis[2][2], sub.den**3)


def is_subgroup(sub: SubgroupHNF, sup: SubgroupHNF) -> bool:
    """True iff sub ⊆ sup: each column h of sub, over its den b, lies in sup."""
    b = sub.den
    return all(_in_lattice(h, b, sup) for h in sub.basis)


def index(sub: SubgroupHNF, sup: SubgroupHNF) -> int:
    """Index of sub inside sup; both must be rank 3 with sub ⊆ sup.

    For sub = H'/b and sup = H/q it is the covolume ratio
    (∏ diag H')·q³ / ((∏ diag H)·b³), taken in integers.
    """
    if sub.rank != 3 or sup.rank != 3:
        raise RankDeficient("index requires two rank-3 subgroups")
    if not is_subgroup(sub, sup):
        raise NotASubgroup("first argument is not contained in the second")
    (h0, _, _), (_, h1, _), (_, _, h2) = sub.basis
    (g0, _, _), (_, g1, _), (_, _, g2) = sup.basis
    num = h0 * h1 * h2 * sup.den**3
    den = g0 * g1 * g2 * sub.den**3
    if num % den:
        g = math.gcd(num, den)
        raise InvariantViolation(f"index of a subgroup came out as {num // g}/{den // g}, not an integer")
    return num // den


def join(a: SubgroupHNF, b: SubgroupHNF) -> SubgroupHNF:
    """Smallest canonical subgroup containing both arguments."""
    return hnf(a.vectors() + b.vectors())


def _rank3_basis(sub: SubgroupHNF) -> tuple[tuple[int, int, int], ...]:
    """The integer basis H of a rank-3 subgroup H/q; RankDeficient for any other rank."""
    if sub.rank != 3:
        raise RankDeficient("integer coordinates require rank 3")
    return sub.basis


def hnf_solve(basis: Sequence[Sequence[int]], v: Sequence[int]) -> IntVec | None:
    """The integer x with H·x = v, or None when there is none, for H the matrix whose columns are a rank-3 column HNF basis.

    H is lower triangular, so forward substitution gives each xᵢ in turn as
    (vᵢ − Σ_{j<i} Hᵢⱼ·xⱼ) / Hᵢᵢ, and x is integral exactly when every
    division is exact.  A v of any length but three is a ValueError.
    """
    (a, b, c), (_, d, e), (_, _, f) = basis
    v0, v1, v2 = v
    x0, s0 = divmod(v0, a)
    x1, s1 = divmod(v1 - b * x0, d)
    x2, s2 = divmod(v2 - c * x0 - e * x1, f)
    return None if s0 or s1 or s2 else (x0, x1, x2)


def hnf_product(basis: Sequence[Sequence[int]], K: Iterable[Sequence[int]]) -> tuple[tuple[int, int, int], ...]:
    """The columns H·k for the columns k of K, each reduced by the later ones, for H as in `hnf_solve`.

    For an integer column HNF K that is the column HNF of H·K: H and K are
    lower triangular with positive pivots, so H·K keeps K's pivot rows and
    positive pivots, and reducing each column by the later ones makes it
    canonical.  A single column k comes back as H·k.
    """
    (a, b, c), (_, d, e), (_, _, f) = basis
    cols = [(a * k0, b * k0 + d * k1, c * k0 + e * k1 + f * k2) for k0, k1, k2 in K]
    return tuple(hnf_reduce(col, cols[j + 1 :]) for j, col in enumerate(cols))


def coord_numerators(v: Sequence, sub: SubgroupHNF) -> tuple[IntVec, int]:
    """Coordinates B⁻¹·v of a rational vector in the actual basis B = H/q of a rank-3 subgroup.

    They come as integer numerators over their least positive denominator:
    for v = n/den they are y/(det H·den), for y the solution of
    H·y = det H·q·n, which is integral because det H·H⁻¹ = adj(H) is.
    """
    basis = _rank3_basis(sub)
    nums, den = _over_common_denominator(v)
    det = basis[0][0] * basis[1][1] * basis[2][2]  # lower triangular
    y = hnf_solve(basis, [det * sub.den * x for x in nums])
    g = math.gcd(det * den, *y)
    return (y[0] // g, y[1] // g, y[2] // g), det * den // g


def from_numerators(n: Sequence[int], den: int, sub: SubgroupHNF) -> Vec3:
    """The vector B·n/den = H·n/(q·den) with the coordinates n/den; ValueError unless n is a 3-vector."""
    if len(n) != 3:
        raise ValueError(f"expected a 3-vector, got {n!r}")
    (x,) = hnf_product(_rank3_basis(sub), (n,))
    return tuple(Fraction(c, sub.den * den) for c in x)  # type: ignore[return-value]


def frame_coords_matrix(m: Sequence[Sequence[int]], basis: Sequence[Sequence[int]]) -> IntMat | None:
    """H⁻¹·m·H for H the matrix whose columns are a rank-3 column HNF basis, or None when m does not preserve its lattice.

    Column j solves H·x = m·Hⱼ (`hnf_solve`), and m preserves the lattice
    exactly when all three solutions are integral.  An m not 3×3 is a ValueError.
    """
    if len(m) != 3 or any(len(row) != 3 for row in m):
        raise ValueError(f"expected a 3×3 matrix, got {m!r}")
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    cols = [
        hnf_solve(basis, (m00 * h0 + m01 * h1 + m02 * h2, m10 * h0 + m11 * h1 + m12 * h2, m20 * h0 + m21 * h1 + m22 * h2))
        for h0, h1, h2 in basis
    ]
    return None if None in cols else tuple(zip(*cols))


def invariant_coords_matrix(m: Sequence[Sequence[int]], sub: SubgroupHNF) -> IntMat:
    """B⁻¹·m·B = H⁻¹·m·H in the actual basis B = H/q of a rank-3 subgroup that m must preserve; ValueError otherwise."""
    a = frame_coords_matrix(m, _rank3_basis(sub))
    if a is None:
        raise ValueError("subgroup is not invariant under the linear map")
    return a


def _from_t0_hnfs(T0: SubgroupHNF, bases: Iterable[tuple[tuple[int, int, int], ...]]) -> list[SubgroupHNF]:
    """The subgroups ⟨H·M⟩/q of T0 = H/q for integer column HNFs M in T0-coordinates, sorted by (−D, basis).

    `hnf_product` gives the column HNF of H·M; divided by g = gcd(q, its
    content), over D = q/g, it is canonical.  When T0 = ℤ³ its HNF is the
    identity, each M is its own canonical basis over D = 1, and the tuples
    sort as they are.
    """
    basis, q = _rank3_basis(T0), T0.den
    if q == 1 and basis == IDENTITY:
        return [SubgroupHNF(M, 1) for M in sorted(bases)]
    out = []
    for M in bases:
        cols = hnf_product(basis, M)
        g = math.gcd(q, *(x for col in cols for x in col))
        out.append(SubgroupHNF(tuple(tuple(x // g for x in col) for col in cols), q // g))
    out.sort(key=lambda L: (-L.den, L.basis))
    return out


def relative_coordinates(sub: SubgroupHNF, sup: SubgroupHNF) -> list[IntVec]:
    """Integer coordinates of sub's basis columns in the actual basis of sup (rank 3, sub ⊆ sup).

    A column h of sub's basis over its den b has the coordinates y/b in the
    basis H/q of sup, for y the solution of H·y = q·h: integral iff
    `hnf_solve` finds y and b divides it.
    """
    basis, q, b = _rank3_basis(sup), sup.den, sub.den
    ys = [hnf_solve(basis, (q * h0, q * h1, q * h2)) for h0, h1, h2 in sub.basis]
    if None in ys or any(x % b for y in ys for x in y):
        raise NotASubgroup("first argument is not contained in the second")
    return [(y0 // b, y1 // b, y2 // b) for y0, y1, y2 in ys]


def relative_integer_basis(sub: SubgroupHNF, sup: SubgroupHNF) -> tuple[tuple[int, int, int], ...]:
    """HNF of sub expressed in integer coordinates of sup's basis (rank 3, sub ⊆ sup)."""
    basis = hnf_columns(relative_coordinates(sub, sup))
    if len(basis) != 3:
        raise RankDeficient("relative basis is not full rank")
    return basis


# ============================================================
# linear congruences modulo the integer lattice
# ============================================================


def _diagonalise(a: list[list[int]], nc: int) -> tuple[list[int], list[list[int]]]:
    """Smith steps in place on the rows a, whose first nc columns become D = U·m·V; returns diag and V.

    Row steps act on whole rows, so entries past column nc ride along as U·x.
    A pass scans one column, not the whole block: its least nonzero |entry|
    from row t down is the pivot, and the remainders below it are smaller.
    Once the column is clear, a column step changes only row t and V.
    """
    nr = len(a)
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]
    diag: list[int] = []
    t = 0
    while t < min(nr, nc):
        i0, best = -1, 0
        for i in range(t, nr):
            if a[i][t] and (not best or abs(a[i][t]) < best):
                i0, best = i, abs(a[i][t])
        # an empty column, or a remainder along row t, swaps into column t for the next pass
        j0 = next((j for j in range(t + 1, nc) for i in range(t, nr) if a[i][j]), None) if i0 < 0 else None
        if i0 >= 0:
            a[t], a[i0] = a[i0], a[t]
            at, p = a[t], a[t][t]
            clear = True
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // p
                    a[i] = ai = [x - q * y for x, y in zip(a[i], at)]
                    clear = clear and not ai[t]
            if not clear:
                continue
            for j in range(t + 1, nc):
                if q := at[j] // p:
                    at[j] -= q * p
                    for row in v:
                        row[j] -= q * row[t]
                if at[j] and j0 is None:
                    j0 = j
        if j0 is not None:
            for row in a + v:
                row[t], row[j0] = row[j0], row[t]
            continue
        if i0 < 0:
            break
        # p must divide the rest; adding an offending row leaves a remainder along row t
        bad = None if p in (1, -1) else next((i for i in range(t + 1, nr) if any(x % p for x in a[i][t + 1 : nc])), None)
        if bad is not None:
            a[t] = [x + y for x, y in zip(at, a[bad])]
            continue
        if p < 0:
            a[t] = [-x for x in at]
        diag.append(abs(p))
        t += 1
    return diag, v


def smith_form(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """Smith normal form U·m·V = D of a small integer matrix (Cohen, GTM 138, §2.4).

    Returns (U, diag, V) with U and V unimodular and D zero except for its
    leading diagonal entries diag = (d₁, …, d_r), positive with d₁ | d₂ | …,
    where r is the rank of m.  U is the identity carried beside m.
    """
    nr, nc = len(m), len(m[0])
    a = [[*row, *(int(i == j) for j in range(nr))] for i, row in enumerate(m)]
    diag, v = _diagonalise(a, nc)
    return [row[nc:] for row in a], diag, v


def solve_congruence(
    m: Sequence[Sequence[int]], nums: Sequence[int], den: int
) -> tuple[list[tuple[int, int, int]], int, list[tuple[int, int, int]]]:
    """Solutions y of m·y ≡ r (mod ℤᵏ) for an integer k×3 matrix m and r = nums/den, den ≥ 1.

    Returns (points, top, kernel).  The solution set is the union of
    p/top + span(kernel) + ℤ³ over the listed integer points p, which are
    pairwise distinct modulo span(kernel) + ℤ³ and share the one positive
    denominator top; there are d₁·…·d_r of them, or none if the system is
    inconsistent.  The kernel vectors are primitive integer vectors spanning the
    real null space of m.  With U·m·V = D, the substitution y = V·z turns the
    system into dᵢ·zᵢ ≡ (U·r)ᵢ, one congruence per coordinate.
    """
    if type(den) is not int or den < 1:
        raise ValueError(f"den must be a positive integer, got {den!r}")
    a = [[*row, x] for row, x in zip(m, nums)]
    diag, v = _diagonalise(a, 3)
    rank, cols = len(diag), list(zip(*v))
    # the fourth column is now U·nums, and U·r is it over den; the rows beyond the rank must be integral
    if any(row[3] % den for row in a[rank:]):
        return [], den, cols[rank:]
    # zⱼ = ((U·nums)ⱼ / den + k) / dⱼ for k = 0, …, dⱼ − 1, written over den·d_r; y = V·z
    last = diag[-1] if diag else 1
    points = [(0, 0, 0)]
    for j, (d, (x0, x1, x2)) in enumerate(zip(diag, cols)):
        zs = [(a[j][3] + k * den) * (last // d) for k in range(d)]
        points = [(p0 + z * x0, p1 + z * x1, p2 + z * x2) for p0, p1, p2 in points for z in zs]
    return points, den * last, cols[rank:]
