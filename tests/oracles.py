"""Slow, direct reference routes that the tests hold the package's fast routes against.

- The literal invariant-sublattice filter runs over every HNF of an index and
  checks the submodule descent mod p of `sublattices.invariant_sublattices`.
- `fixed_lines_by_enumeration` tests every one of the p² + p + 1 lines of
  F_p³, where the package looks only in the eigenspaces of one matrix.
  `maximal_steps_by_enumeration` finds the invariant planes by testing
  every line of every plane, where the package takes them as annihilators
  of the lines the transposed matrices fix.
- `fixed_axis` solves for a rotation's fixed line by Gaussian elimination and
  returns it as an `Axis`.  It checks the Smith-form singular set, which
  `singular_axes`, `singular_vertices` and `singular_circles` write as frame
  values, through the window scans of `test_periodic_graph.py`.  The axes
  and circles come from `fixed_points_per_coset` and `axis_classes`: the
  package keeps no table of axes.
  `_plane_lattice` and `_axis_base` are those scans' own axis
  canonicaliser: they name a line modulo the lattice by its projection along
  its direction, reduced by the projected plane lattice, where the package
  uses a unimodular basis per direction in T0-coordinates.
- `smith_form_by_block_scan` is the Smith form that rescans the whole
  remaining block for its least entry on every pass, and
  `solve_congruence_by_block_scan` solves a congruence through it.  They
  check the package's small-system Smith form, which clears one column and
  one row at a time and carries U·r beside the matrix.
  `congruence_classes` names a solution set modulo its kernel and ℤ³.
- `dual`, `intersect` and `coset_reps` do lattice algebra on the `Fraction`
  basis matrix and its inverse (`mat_inv`, the one rational inverse), and
  check the integer routes.
- `fraction_member`, `fraction_is_subgroup` and `fraction_index` test
  membership on the `Fraction` basis vectors and take the index as a
  `Fraction` covolume ratio.  They check the package's predicates, which
  reduce integer numerators by the canonical HNF.  `coords_in` gives a
  vector's `Fraction` coordinates in a lattice basis.
- `identity`, `compose`, `inverse`, `apply`, `conjugate_translation`,
  `contains`, `stabilizer` and `stabilizer_order` are the `Fraction`
  isometry algebra in frame coordinates.  They check the closure, the
  conjugation closed forms and the package's stabilizers, which scan the
  integer coset maps in T0-coordinates.  `_normalizer_maps` writes the
  package's normalizer transversal, in T0-coordinates, as frame maps for the
  grid oracle, and `is_pure_translation` picks the translations out of a
  list of isometries.
- `reduce_mod` and `canon_segment` reduce points and segments into the cell
  of a lattice in `Fraction`, and check the integer segments of the singular
  set.
- `fixed_points_per_coset` solves one fixed-point congruence per rotation
  coset and per pair of half-turn cosets, on `Fraction` coset coordinates
  (`coset_coords`), and `axis_classes` scans a stabilizer per axis class for
  its rotation index.  They check the package's one solve per class of
  half-turn pairs, carried to the rest by the coset maps, and the segments
  it reads off the vertex stabilizers: each lies on a solved axis class,
  with that axis's index as its edge index.  `germ_orbits` is the
  union-find over stabilizer and germ directions that the package's one
  sweep per orbit replaces.
- `rotation_order` takes powers of a rotation until it reaches the identity,
  and `rotation_classes_by_power_loop` is `_rotation_classes` with its
  half-turns found by it.  They check the package, which reads a half-turn
  off its trace.
- `suppress_valence_two_by_rescan` smooths one valence-2 vertex at a time
  and rebuilds its incidence map after each.  It checks the package's one
  pass in vertex order.
- `instantiate_by_generators` builds a family instance as the HNF of its
  generators, one list per family and the odd body-centred case over den 2
  apart.  It checks the package's `instantiate`, which scales each family's
  unit lattice.
- `subgroup_hnf_by_column_loop` and `lattice_family_by_index_checks` are the
  checks the two records first made: every basis through one loop over its
  columns, and each family parameter through its own index check.  They
  check the records' constructors, which test the rank-3 basis and the
  parameters in straight-line code; `outcome` reads a call's value, or what
  it raises, so that the two can be compared.
- `survey_rows_by_lattice` builds the rows of `normal_translation_subgroups`
  the way the survey first did: each lattice of an index mapped to T0 alone
  by `_from_t0_hnfs`, the index's lattices sorted by (−D, basis), and the
  family matched by comparing the basis with k times each n = 1 instance
  (`match_family_by_units`).  It checks the package's one pass per index,
  which sorts the kernel's raw tuples when T0 = ℤ³ and compares each lattice
  with the one instance per family that its first pivot names.
- `frame_symmetries` filters every triple of short columns of the right
  lengths by the determinant and metric checks, against the package's
  search that drops a partial triple at its first wrong Gram entry.
  `lattice_symmetries_by_conversion` writes each of them in a lattice basis
  H as H⁻¹SH and keeps the integral ones, against the package's search of
  that basis's own Gram matrix Hᵀ·gram·H.
- `_UnionFind` holds disjoint sets.  Besides `germ_orbits`, the marked-edge
  tests union every orbit with its normalizer images through it, against
  the package's one sweep of the normalizer transversal.
- `coords_matrix` writes a map in a lattice basis by the adjugate,
  adj(H)·m·H / det H.  It checks the package's forward substitution through
  the triangular basis, `frame_coords_matrix`.
- `constraint_holds` decides a row by parsing its constraint word, the way
  the classification first did.  It checks the package's one arithmetic
  verdict, gcd(k, e) = 1 on the exponent e of T0/I, through the word that
  the package renders for e.

- `vec`, `vadd`, `vneg`, `vscale` and `mat` build and combine `Fraction`
  vectors and matrices.  `from_coords`, `_from_t0_coords` and `translation`
  are the coordinate and isometry conversions that the tests state lattices
  and groups in; the package calls the integer routes behind them directly.

numpy is used only by the literal filter, which imports it where it runs, so it is a
test dependency only and the other oracles load without it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from torsym.errors import InvariantViolation, NotASubgroup, RankDeficient, UnmatchedLattice
from torsym.lattices import (
    SubgroupHNF,
    Vec3,
    _from_t0_hnfs,
    _over_common_denominator,
    as_int,
    coord_numerators,
    covolume,
    hnf,
    hnf_columns,
    hnf_reduce,
    from_numerators,
    int_matvec,
    invariant_coords_matrix,
    is_subgroup,
    join,
    adjugate,
    mat_det,
    matmul,
    member,
    primitive_integer,
    relative_integer_basis,
    rotation_axis,
    solve_congruence,
)
from torsym.periodic_graphs import (
    PeriodicGraph,
    _SingularData,
    _axis_basis,
    _normalize_edge,
    _normalizer_solutions,
    _orbit_sweep,
    _singular_data,
    _turned,
)
from torsym.spacegroups import (
    Frame,
    Isometry,
    SpaceGroup,
    fixing_cosets,
    preserves_metric,
)
from torsym.sublattices import (
    CUBIC_TAGS,
    FAMILY_TAGS,
    HEX_TAGS,
    LatticeFamily,
    _coord_rotations,
    _of_index,
    _rotation_generators,
)

IntVec = tuple[int, int, int]
Mat3 = tuple[tuple[Fraction, ...], ...]  # the rational matrices of the oracles' linear algebra

_ROT_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# ============================================================
# Fraction vectors and coordinate conversions that only the tests call
# ============================================================


def vec(x, y, z) -> Vec3:
    return (Fraction(x), Fraction(y), Fraction(z))


def vadd(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def vneg(a: Vec3) -> Vec3:
    return (-a[0], -a[1], -a[2])


def vscale(c, a: Vec3) -> Vec3:
    c = Fraction(c)
    return (c * a[0], c * a[1], c * a[2])


def mat(rows: Sequence[Sequence]) -> Mat3:
    return tuple(tuple(Fraction(e) for e in row) for row in rows)


def from_coords(c: Sequence, sub: SubgroupHNF) -> Vec3:
    """Vector with the given coordinates in the actual basis of a rank-3 subgroup."""
    return from_numerators(*_over_common_denominator(c), sub)


def coords_matrix(m: Sequence[Sequence[int]], sub: SubgroupHNF) -> tuple | None:
    """B⁻¹·m·B in the actual basis B = H/q of a rank-3 subgroup, or None when m does not preserve it.

    The adjugate route: H⁻¹·m·H = adj(H)·m·H / det H, integral exactly when
    det H divides every entry of the product.  It checks the package's
    forward substitution, `frame_coords_matrix`.
    """
    if sub.rank != 3:
        raise RankDeficient("coords_matrix requires rank 3")
    h = tuple(zip(*sub.basis))
    det = mat_det(h)
    prod = matmul(matmul(adjugate(h), m), h)
    if math.gcd(*prod[0], *prod[1], *prod[2]) % det:
        return None
    return tuple(tuple(x // det for x in row) for row in prod)


def _from_t0_coords(T0: SubgroupHNF, cols: Sequence[Sequence[int]]) -> SubgroupHNF:
    """The subgroup of T0 spanned by integer T0-coordinate columns."""
    return _from_t0_hnfs(T0, (hnf_columns(cols),))[0]


def translation(frame: Frame, v: Sequence) -> Isometry:
    return Isometry(frame, _ROT_IDENTITY, vec(*v))

# ============================================================
# rational linear algebra
# ============================================================


def mat_inv(m: Mat3) -> Mat3:
    """Exact inverse adj(m)/det(m); an integer matrix of determinant ±1 gives an integer matrix."""
    d = mat_det(m)
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    if d in (1, -1):
        return tuple(tuple(c * d for c in row) for row in adjugate(m))
    return tuple(tuple(Fraction(c) / d for c in row) for row in adjugate(m))


def solve_linear(a: Mat3, b: Sequence) -> tuple[Vec3, list[Vec3]] | None:
    """Solve a·x = b exactly; returns (particular solution, kernel basis) or None."""
    rows = [[Fraction(a[i][j]) for j in range(3)] + [Fraction(b[i])] for i in range(3)]
    pivots: list[int] = []
    r = 0
    for c in range(3):
        pr = next((i for i in range(r, 3) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [e / rows[r][c] for e in rows[r]]
        for i in range(3):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, 3):
        if rows[i][3] != 0:
            return None
    free = [c for c in range(3) if c not in pivots]
    part = [Fraction(0)] * 3
    for i, c in enumerate(pivots):
        part[c] = rows[i][3]
    kernel: list[Vec3] = []
    for f in free:
        k = [Fraction(0)] * 3
        k[f] = Fraction(1)
        for i, c in enumerate(pivots):
            k[c] = -rows[i][f]
        kernel.append(tuple(k))  # type: ignore[arg-type]
    return tuple(part), kernel  # type: ignore[return-value]


def smith_form_by_block_scan(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """Smith normal form U·m·V = D of an integer matrix (Cohen, GTM 138, §2.4), rescanning the block on each pass.

    Returns (U, diag, V) with U and V unimodular and D zero except for its
    leading diagonal entries diag = (d₁, …, d_r), positive with d₁ | d₂ | …,
    where r is the rank of m.  Each pass takes the least nonzero |entry| of
    the whole remaining block as its pivot.
    """
    a = [list(row) for row in m]
    nr, nc = len(a), len(a[0])
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]
    diag: list[int] = []
    for t in range(min(nr, nc)):
        while True:
            nonzero = [(abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]]
            if not nonzero:
                return u, diag, v
            _, i0, j0 = min(nonzero)
            a[t], a[i0] = a[i0], a[t]
            u[t], u[i0] = u[i0], u[t]
            for row in a + v:
                row[t], row[j0] = row[j0], row[t]
            p = a[t][t]
            # each division leaves a remainder smaller than |p|, so a nonzero
            # remainder gives a smaller pivot on the next pass
            clean = True
            for i in range(t + 1, nr):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                clean = clean and not a[i][t]
            for j in range(t + 1, nc):
                q = a[t][j] // p
                if q:
                    for row in a + v:
                        row[j] -= q * row[t]
                clean = clean and not a[t][j]
            if not clean:
                continue
            bad = next(
                (i for i in range(t + 1, nr) if any(a[i][j] % p for j in range(t + 1, nc))),
                None,
            )
            if bad is None:
                break
            # p must divide the rest; adding the offending row makes it shrink next pass
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        diag.append(a[t][t])
    return u, diag, v


def solve_congruence_by_block_scan(m: Sequence[Sequence[int]], nums: Sequence[int], den: int) -> tuple[list[IntVec], int, list[IntVec]]:
    """`solve_congruence` through `smith_form_by_block_scan`, with U·r formed from U afterwards."""
    u, diag, v = smith_form_by_block_scan(m)
    rank = len(diag)
    kernel = [(v[0][j], v[1][j], v[2][j]) for j in range(rank, 3)]
    rhs = [sum(a * b for a, b in zip(row, nums)) for row in u]
    if any(x % den for x in rhs[rank:]):
        return [], den, kernel
    top = den * diag[-1] if diag else den
    choices = [[(rhs[j] + k * den) * (diag[-1] // diag[j]) for k in range(diag[j])] for j in range(rank)]
    points = [tuple(sum(v[i][j] * z[j] for j in range(rank)) for i in range(3)) for z in itertools.product(*choices)]
    return points, top, kernel  # type: ignore[return-value]


def congruence_classes(points: Sequence[IntVec], top: int, kernel: Sequence[IntVec]) -> set[tuple[int, ...]]:
    """The points p/top as classes modulo span(kernel) + ℤ³, for a kernel that is a basis of its saturated lattice.

    U·K = (I; 0) for the Smith form of the kernel matrix K, so U maps the
    kernel's lattice onto the first coordinates, and the rest of U·p modulo
    top names the class.
    """
    if not kernel:
        return {tuple(x % top for x in p) for p in points}
    u, diag, _ = smith_form_by_block_scan([[k[i] for k in kernel] for i in range(3)])
    if diag != [1] * len(kernel):
        raise ValueError("kernel vectors do not span a saturated lattice")
    return {tuple(sum(a * x for a, x in zip(row, p)) % top for row in u[len(kernel) :]) for p in points}


def vsub(a: Sequence, b: Sequence) -> Vec3:
    return tuple(Fraction(x) - Fraction(y) for x, y in zip(a, b))  # type: ignore[return-value]


def matvec(m: Sequence[Sequence], v: Sequence) -> Vec3:
    return tuple(sum(Fraction(m[i][j]) * Fraction(v[j]) for j in range(3)) for i in range(3))  # type: ignore[return-value]


def int_affine(m: Sequence[Sequence[int]], v: Sequence, t: Sequence = (0, 0, 0)) -> Vec3:
    """m·v + t for an integer matrix m and rational vectors v, t."""
    return vadd(matvec(m, v), tuple(Fraction(x) for x in t))


def coords_in(v: Sequence, sub: SubgroupHNF) -> Vec3:
    """Coordinates of a rational vector in the actual basis of a rank-3 subgroup."""
    n, d = coord_numerators(v, sub)
    return tuple(Fraction(x, d) for x in n)  # type: ignore[return-value]


def fraction_member(v: Sequence, sub: SubgroupHNF) -> bool:
    """True iff the rational vector v lies in the subgroup."""
    d = sub.den
    w: list[int] = []
    for x in v:
        y = Fraction(x) * d
        if y.denominator != 1:
            return False
        w.append(y.numerator)
    return not any(hnf_reduce(w, sub.basis))


def fraction_is_subgroup(sub: SubgroupHNF, sup: SubgroupHNF) -> bool:
    return all(fraction_member(v, sup) for v in sub.vectors())


def fraction_index(sub: SubgroupHNF, sup: SubgroupHNF) -> int:
    """Index of sub inside sup; both must be rank 3 with sub ⊆ sup."""
    if sub.rank != 3 or sup.rank != 3:
        raise RankDeficient("index requires two rank-3 subgroups")
    if not fraction_is_subgroup(sub, sup):
        raise NotASubgroup("first argument is not contained in the second")
    ratio = covolume(sub) / covolume(sup)
    if ratio.denominator != 1:
        raise InvariantViolation(f"index of a subgroup came out as {ratio}, not an integer")
    return ratio.numerator


def basis_matrix(sub: SubgroupHNF) -> Mat3:
    """Actual basis as a 3×3 `Fraction` matrix with basis vectors as columns (rank 3 only)."""
    if sub.rank != 3:
        raise RankDeficient("basis_matrix requires rank 3")
    vs = sub.vectors()
    return tuple(tuple(v[i] for v in vs) for i in range(3))


def dual(sub: SubgroupHNF) -> SubgroupHNF:
    """Dual lattice {y : y·x ∈ Z for all x in sub} (rank 3 only)."""
    return hnf(list(mat_inv(basis_matrix(sub))))  # rows of the inverse are the dual basis columns


def intersect(a: SubgroupHNF, b: SubgroupHNF) -> SubgroupHNF:
    """Intersection of two rank-3 subgroups, via duality: (A ∩ B)* = A* + B*."""
    if a.rank != 3 or b.rank != 3:
        raise RankDeficient("intersect requires two rank-3 subgroups")
    return dual(join(dual(a), dual(b)))


def coset_reps(sub: SubgroupHNF, sup: SubgroupHNF) -> list[Vec3]:
    """Representatives of sup/sub, one per coset, in a triangular fundamental cell."""
    if sub.rank != 3 or sup.rank != 3:
        raise RankDeficient("coset_reps requires two rank-3 subgroups")
    if not is_subgroup(sub, sup):
        raise NotASubgroup("first argument is not contained in the second")
    rel = relative_integer_basis(sub, sup)
    sup_mat = basis_matrix(sup)
    return [
        matvec(sup_mat, (x1, x2, x3))
        for x1 in range(rel[0][0])
        for x2 in range(rel[1][1])
        for x3 in range(rel[2][2])
    ]


def reduce_mod(v: Sequence, sub: SubgroupHNF) -> tuple[Vec3, tuple[int, int, int]]:
    """Reduce v into the fundamental cell [0,1)³ of a rank-3 subgroup, in `Fraction`.

    Returns (representative, k) with v = representative + sub-basis·k, k the
    floor of v's coordinates in the subgroup's basis.
    """
    k = tuple(math.floor(x) for x in coords_in(v, sub))
    return vsub(tuple(Fraction(x) for x in v), from_coords(k, sub)), k  # type: ignore[return-value]


def canon_segment(T0: SubgroupHNF, a: Vec3, b: Vec3) -> tuple[Vec3, Vec3]:
    """Canonical lattice translate of the unordered segment (a, b), in `Fraction`.

    Of the two translates that put one end into the cell of T0, the smaller.
    """
    ends = [(reduce_mod(p, T0)[0], p, q) for p, q in ((a, b), (b, a))]
    return min((rep, vadd(rep, vsub(q, p))) for rep, p, q in ends)


# ============================================================
# the Fraction isometry algebra
# ============================================================


def identity(frame: Frame) -> Isometry:
    return Isometry(frame, _ROT_IDENTITY, (0, 0, 0))


def compose(g: Isometry, h: Isometry) -> Isometry:
    """The map p ↦ g(h(p))."""
    return Isometry(g.frame, matmul(g.rot, h.rot), int_affine(g.rot, h.trans, g.trans))


def inverse(g: Isometry) -> Isometry:
    inv = mat_inv(mat(g.rot))
    rot = tuple(tuple(int(e) for e in row) for row in inv)
    return Isometry(g.frame, rot, vneg(matvec(inv, g.trans)))


def apply(g: Isometry, p: Sequence) -> Vec3:
    return int_affine(g.rot, p, g.trans)


def conjugate_translation(g: Isometry, u: Sequence) -> Vec3:
    """Translation vector of g⁻¹·t_u·g, namely rot(g)⁻¹·u; independent of trans(g)."""
    return matvec(mat_inv(mat(g.rot)), u)


def contains(G: SpaceGroup, g: Isometry) -> bool:
    """True iff the isometry, in the group's frame, belongs to the group."""
    for c in G.cosets:
        if c.rot == g.rot:
            return member(vsub(g.trans, c.trans), G.T0)
    return False


def stabilizer(p: Sequence, G: SpaceGroup) -> list[Isometry]:
    """All group elements fixing the point p: for each coset (R, t) with R·p + t − p ∈ T0, (R, p − R·p)."""
    p = tuple(Fraction(x) for x in p)
    return [
        Isometry(G.frame, c.rot, vadd(c.trans, vsub(p, apply(c, p))))
        for c in G.cosets
        if member(vsub(apply(c, p), p), G.T0)
    ]


def stabilizer_order(p: Sequence, G: SpaceGroup) -> int:
    return len(stabilizer(p, G))


# ============================================================
# fixed axes by Gaussian elimination
# ============================================================


def canonical_line(point: Sequence, direction: Sequence) -> tuple[Vec3, tuple[int, int, int]]:
    """Canonical (base, direction) for the line through `point` along `direction`.

    The direction is primitive with its first nonzero entry positive, and the
    base is the unique point on the line whose coordinate at that entry is zero.
    """
    d = primitive_integer(direction)
    i0 = next(i for i in range(3) if d[i])
    p = tuple(Fraction(x) for x in point)
    s = p[i0] / d[i0]
    base = tuple(p[i] - s * d[i] for i in range(3))
    return base, d  # type: ignore[return-value]


@dataclass(frozen=True)
class Axis:
    """Fixed line of a rotation: base point, primitive direction, rotational order."""

    base: Vec3
    direction: tuple[int, int, int]
    order: int


def is_pure_translation(g: Isometry) -> bool:
    return g.rot == _ROT_IDENTITY


def fixed_axis(g: Isometry) -> Axis | None:
    """Fixed line of a non-trivial isometry, or None for a screw motion."""
    if is_pure_translation(g):
        raise ValueError("fixed_axis requires a non-identity rotation part")
    a = mat(g.rot)
    m = tuple(tuple(a[i][j] - (1 if i == j else 0) for j in range(3)) for i in range(3))
    sol = solve_linear(m, vneg(g.trans))
    if sol is None:
        return None
    part, kernel = sol
    if len(kernel) != 1:
        raise ValueError("fixed set is not a line")
    base, d = canonical_line(part, kernel[0])
    return Axis(base=base, direction=d, order=rotation_order(g.rot))


@lru_cache(maxsize=None)
def _plane_lattice(
    T0: SubgroupHNF, d: IntVec
) -> tuple[int, int, tuple[tuple[int, IntVec], ...]]:
    """The lattice projected along d onto the plane where d's first nonzero coordinate vanishes.

    Returns (i0, D, ((pivot row, column), …)): that coordinate's index, and
    the rank-2 image as (1/D)·(integer HNF) with each column's pivot row.  A
    column h of T0 = ⟨H⟩/q projects to (d[i0]·h − h[i0]·d)/(q·d[i0]); dividing
    out the content the HNF shares with q·d[i0] leaves D minimal.
    """
    i0 = next(i for i in range(3) if d[i])
    cols = hnf_columns(
        tuple(d[i0] * h[i] - h[i0] * d[i] for i in range(3)) for h in T0.basis
    )
    if len(cols) != 2:
        raise InvariantViolation("projection of a rank-3 lattice must have rank 2")
    den = T0.den * d[i0]
    g = math.gcd(den, *(x for c in cols for x in c))
    return i0, den // g, tuple(
        (next(r for r in range(3) if c[r]), tuple(x // g for x in c)) for c in cols
    )


def _axis_base(T0: SubgroupHNF, n: Sequence[int], den: int, d: IntVec) -> IntVec:
    """Canonical base of the line through the point n/den along d, modulo the lattice.

    The base is the projection of the point along d, translated by the plane
    lattice into its fundamental cell, so two lines along d are lattice
    translates of each other iff they have the same base.  d is primitive
    with its first nonzero coordinate d[i0] positive.  Points are integer
    numerators over den, which the plane lattice's D must divide, and d[i0]
    must divide n[i0].
    """
    i0, dd, cols = _plane_lattice(T0, d)
    f = den // dd
    s = n[i0] // d[i0]
    w = [n[0] - s * d[0], n[1] - s * d[1], n[2] - s * d[2]]
    for r, col in cols:
        k = w[r] // (f * col[r])
        if k:
            w = [w[i] - k * f * col[i] for i in range(3)]
    return (w[0], w[1], w[2])


def _normalizer_maps(G: SpaceGroup) -> tuple[tuple[tuple, Vec3], ...]:
    """The `_normalizer_solutions` (s, y, top) of G as frame maps (S, t), S = H·s·H⁻¹ by `mat_inv`, sorted."""
    h = tuple(zip(*G.T0.basis))
    h_inv = mat_inv(mat(h))
    return tuple(
        sorted((_integral(matmul(matmul(h, s), h_inv)), from_numerators(y, top, G.T0)) for s, y, top in _normalizer_solutions(G))
    )


def _integral(m: Sequence[Sequence]) -> tuple | None:
    """The rational matrix m with int entries, or None when an entry is not an integer."""
    if any(Fraction(x).denominator != 1 for row in m for x in row):
        return None
    return tuple(tuple(int(x) for x in row) for row in m)


def numerators(v: Sequence, den: int) -> IntVec:
    """Integer numerators of a rational vector over den, which must clear its denominators."""
    return tuple(x.numerator * (den // x.denominator) for x in v)  # type: ignore[return-value]


def _frame_axis(T0: SubgroupHNF, den: int, e: IntVec, c1: int, c2: int, order: int) -> Axis:
    """The axis class (e, c₁, c₂) over den in frame coordinates: base U⁻¹·(0, c₁, c₂) over den."""
    base = from_numerators(int_matvec(_axis_basis(e)[1], (0, c1, c2)), den, T0)
    return Axis(base=base, direction=primitive_integer(from_numerators(e, 1, T0)), order=order)


@lru_cache(maxsize=None)
def _axis_classes_of(G: SpaceGroup) -> tuple[tuple[IntVec, int, int, int], ...]:
    """`axis_classes` of the lines of `fixed_points_per_coset`, over the den of `_singular_data`."""
    return tuple(axis_classes(_singular_data(G), fixed_points_per_coset(G)[0]))


def singular_axes(G: SpaceGroup) -> list[Axis]:
    """Every rotation axis of G, one per class modulo T0, with its rotation index, in frame coordinates."""
    den = _singular_data(G).den
    return [_frame_axis(G.T0, den, *ax) for ax in _axis_classes_of(G)]


def singular_vertices(G: SpaceGroup) -> list[Vec3]:
    """The vertices of the singular set of G, one per class modulo T0, as frame points."""
    data = _singular_data(G)
    return [from_numerators(v, data.den, G.T0) for v in data.vertex_classes]


def singular_circles(G: SpaceGroup) -> list[Axis]:
    """The rotation axes of G that carry no vertex of `_singular_data` (closed singular circles), in frame coordinates."""
    data = _singular_data(G)
    den = data.den
    out = []
    for e, c1, c2, order in _axis_classes_of(G):
        u = _axis_basis(e)[0]
        if all((x1 - c1) % den or (x2 - c2) % den for _, x1, x2 in (int_matvec(u, v) for v in data.vertex_classes)):
            out.append(_frame_axis(G.T0, den, e, c1, c2, order))
    return out


# ============================================================
# the singular set by one solve per coset
# ============================================================


def coset_coords(G: SpaceGroup) -> tuple[tuple[tuple[tuple[int, ...], ...], IntVec], ...]:
    """The cosets (R, t) as (B⁻¹RB, B⁻¹t) in the basis B of T0, B⁻¹t by `coords_in` in `Fraction`.

    Returns the cosets with B⁻¹t as integer numerators over one least common
    denominator, and that denominator.
    """
    coords = [(invariant_coords_matrix(c.rot, G.T0), coords_in(c.trans, G.T0)) for c in G.cosets]
    den = math.lcm(*(x.denominator for _, t in coords for x in t))
    return tuple((a, numerators(t, den)) for a, t in coords), den


def _fixed_point_congruences(G: SpaceGroup) -> tuple[list[tuple[tuple, IntVec, int]], int]:
    """(A, −τ, order) for the rotation cosets (R, t) whose fixed points make up all the others'.

    B·y is fixed by x ↦ R·x + t + w for some w ∈ T0 iff A·y ≡ −τ (mod ℤ³),
    with A = B⁻¹(R − I)B in the basis B of T0, integral because T0 is
    invariant, and τ = B⁻¹t.  A rotation fixes the same line as its powers of
    order 2 or 3, and a coset has the same fixed points as its inverse, so
    only cosets of order 2, and one of each inverse pair of order 3, are kept.
    Every −τ is returned as integer numerators over the returned den of `coset_coords`.
    """
    cosets, den = coset_coords(G)
    out = []
    for c, (rot, tau) in zip(G.cosets, cosets):
        order = rotation_order(c.rot)
        if order not in (2, 3) or (order == 3 and c.rot > matmul(c.rot, c.rot)):
            continue
        delta = tuple(tuple(rot[i][j] - (1 if i == j else 0) for j in range(3)) for i in range(3))
        out.append((delta, (-tau[0], -tau[1], -tau[2]), order))
    return out, den


def fixed_points_per_coset(G: SpaceGroup) -> tuple[list, list]:
    """Rotation axes and vertices modulo T0, as points y/top in the basis of T0, one solve per coset.

    Returns (lines, corners).  Each congruence A·y ≡ −τ gives one entry of
    lines: its axis direction e in the basis of T0, primitive with its first
    nonzero entry positive, and one point on each of its d₁·d₂ lines, because
    A has rank 2 and its Smith form U·A·V = diag(d₁, d₂, 0) splits its fixed
    points into that many lines modulo T0, or none for a screw.  Each pair of
    half-turn congruences about non-parallel axes gives one entry of corners:
    their common fixed points, finitely many modulo T0 because the stacked
    6×3 system has rank 3.

    Half-turns suffice.  A vertex is fixed by two rotations about
    non-parallel axes, so its stabilizer, a finite rotation group that is not
    cyclic, is D_n with n ≥ 2, T or O (I is not crystallographic).  D_n has n
    half-turns about distinct axes perpendicular to its main axis, and T and O
    contain the three half-turns of their D_2.  So every vertex is fixed by two
    half-turns about non-parallel axes, and their cosets are among the pairs.
    """
    congruences, den = _fixed_point_congruences(G)
    lines = []
    for a, r, _ in congruences:
        points, top, kernel = solve_congruence(a, r, den)
        if len(kernel) != 1:
            raise InvariantViolation("fixed set of a rotation is not a line")
        lines.append((primitive_integer(kernel[0]), points, top))
    half_turns = [(a, r) for a, r, order in congruences if order == 2]
    corners = []
    for k, (a1, r1) in enumerate(half_turns):
        for a2, r2 in half_turns[k + 1 :]:
            points, top, kernel = solve_congruence(a1 + a2, r1 + r2, den)
            if not kernel:  # kernel means parallel axes
                corners.append((points, top))
    return lines, corners


def axis_classes(data: _SingularData, lines) -> list[tuple[IntVec, int, int, int]]:
    """(direction, class, rotation index) of every line, sorted, each index counted by its own stabilizer scan.

    The class of the line through y along e is (U·y)₁,₂ modulo data.den, with
    U from `_axis_basis`; its base point is U⁻¹·(0, c₁, c₂).  The index is
    the number of cosets with an element fixing the line pointwise.
    """
    den = data.den
    if any(den % top for *_, top in lines):
        raise ValueError("the den of data does not clear the solved lines")
    found: dict[tuple[IntVec, int, int], int] = {}
    for e, points, top in lines:
        u, u_inv = _axis_basis(e)
        for y in points:
            _, c1, c2 = int_matvec(u, y)
            key = (e, c1 * (den // top) % den, c2 * (den // top) % den)
            if key not in found:
                base = int_matvec(u_inv, (0, key[1], key[2]))
                found[key] = sum(1 for k in fixing_cosets(data.moves, den, base) if int_matvec(data.moves[k][0], e) == e)
    return [(*key, found[key]) for key in sorted(found)]


def vertex_classes(den: int, corners) -> list[IntVec]:
    """Every solved corner y/top as numerators over den, reduced into the cell [0,1)³, sorted."""
    return sorted(
        {tuple(x * (den // top) % den for x in y) for points, top in corners for y in points}
    )


def rotation_order(rot: Sequence[Sequence[int]]) -> int:
    """The least k ≤ 6 with rotᵏ = I; ValueError for a non-integer entry or a larger order."""
    m = tuple(tuple(map(as_int, row)) for row in rot)
    p = m
    for k in range(1, 7):
        if p == _ROT_IDENTITY:
            return k
        p = matmul(p, m)
    raise ValueError("rotation order exceeds 6; not a crystallographic rotation")


def rotation_classes_by_power_loop(rots: tuple) -> tuple[tuple[int, int], ...]:
    """`periodic_graphs._rotation_classes`, the half-turn pair classes, with each half-turn found by `rotation_order`."""
    keyed: dict[IntVec, int] = {}
    for k, a in enumerate(rots):
        if rotation_order(a) == 2:
            keyed.setdefault(rotation_axis(a), k)
    pairs = [tuple(sorted(p)) for p in itertools.combinations(keyed, 2)]
    swept = _orbit_sweep(pairs, lambda a, p: tuple(sorted(_turned(a, e) for e in p)), rots)
    return tuple((keyed[e1], keyed[e2]) for e1, e2 in dict.fromkeys(swept.values()))


@lru_cache(maxsize=None)
def rotation_direction(rot: tuple) -> IntVec:
    """Direction of the axis of a rotation, the null space of the rank-2 matrix R − I, by Smith form."""
    _, _, v = smith_form_by_block_scan([[rot[i][j] - (i == j) for j in range(3)] for i in range(3)])
    return primitive_integer([row[2] for row in v])


class _UnionFind:
    """Disjoint sets over a fixed collection of hashable items, with path halving."""

    def __init__(self, items) -> None:
        self._parent = {x: x for x in items}

    def __contains__(self, x) -> bool:
        return x in self._parent

    def find(self, x):
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb

    def groups(self) -> list[list]:
        """The classes, each listing its items in insertion order."""
        out: dict = {}
        for x in self._parent:
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


def germ_orbits(rots: Sequence) -> tuple[tuple[frozenset[IntVec], int], ...]:
    """Orbits of outgoing axis germs at a singular point, each with its index, by union-find.

    rots are the rotation parts of the point's stabilizer, the identity left out.
    """
    by_dir: dict[IntVec, int] = {}
    for rot in rots:
        d = rotation_direction(rot)
        by_dir[d] = by_dir.get(d, 0) + 1
    index_of: dict[IntVec, int] = {}
    for d, count in by_dir.items():
        index_of[d] = count + 1
        index_of[(-d[0], -d[1], -d[2])] = count + 1
    classes = _UnionFind(index_of)
    for rot in rots:
        for u in index_of:
            v = int_matvec(rot, u)
            if v not in classes:
                raise InvariantViolation("stabilizer does not permute the germ directions")
            classes.union(u, v)
    orbits = []
    for members in classes.groups():
        idx = {index_of[u] for u in members}
        if len(idx) != 1:
            raise InvariantViolation("germ orbit mixes axes of different indices")
        orbits.append((frozenset(members), idx.pop()))
    return tuple(sorted(orbits, key=lambda o: (o[1], min(o[0]))))


# ============================================================
# invariant sublattices by enumerate-and-filter
# ============================================================


def _divisors(d: int) -> list[int]:
    return [k for k in range(1, d + 1) if d % k == 0]


def _pivot_triples(d: int) -> list[tuple[int, int, int]]:
    """All (a, b, c) with a·b·c = d, the diagonal of a lower-triangular HNF."""
    out = []
    for a in _divisors(d):
        for b in _divisors(d // a):
            out.append((a, b, d // (a * b)))
    return out


def enumerate_sublattices(T0: SubgroupHNF, d: int) -> list[SubgroupHNF]:
    """All index-d sublattices of a rank-3 subgroup, each in canonical form."""
    if T0.rank != 3:
        raise RankDeficient("enumerate_sublattices requires a rank-3 subgroup")
    if d < 1:
        raise ValueError("index must be a positive integer")
    out = []
    for a, b, c in _pivot_triples(d):
        for x in range(b):
            for y in range(c):
                for z in range(c):
                    out.append(_from_t0_coords(T0, [(a, x, y), (0, b, z), (0, 0, c)]))
    return out


def is_invariant(L: SubgroupHNF, G: SpaceGroup) -> bool:
    """True iff conjugation by every group element maps L into itself."""
    if not is_subgroup(L, G.T0):
        raise NotASubgroup("lattice is not contained in the translation lattice")
    # generator rotations suffice: conjugation acts linearly and multiplicatively
    for g in G.generators:
        if g.rot == _ROT_IDENTITY:
            continue
        for b in L.vectors():
            if not member(conjugate_translation(g, b), L):
                return False
    return True


def _triples_array(d: int) -> np.ndarray:
    """All lower-triangular HNF triples (a, b, c, x, y, z) of determinant d."""
    import numpy as np

    blocks = []
    for a, b, c in _pivot_triples(d):
        x, y, z = np.meshgrid(
            np.arange(b, dtype=np.int64),
            np.arange(c, dtype=np.int64),
            np.arange(c, dtype=np.int64),
            indexing="ij",
        )
        blk = np.empty((b * c * c, 6), dtype=np.int64)
        blk[:, 0] = a
        blk[:, 1] = b
        blk[:, 2] = c
        blk[:, 3] = x.ravel()
        blk[:, 4] = y.ravel()
        blk[:, 5] = z.ravel()
        blocks.append(blk)
    return np.concatenate(blocks)


def _invariant_mask(t: np.ndarray, rot: Sequence[Sequence[int]]) -> np.ndarray:
    """Which HNF triples span a lattice mapped into itself by an integer matrix."""
    import numpy as np

    a, b, c, x, y, z = (t[:, i] for i in range(6))
    zero = np.zeros_like(a)
    ok = np.ones(len(t), dtype=bool)
    for u in ((a, x, y), (zero, b, z), (zero, zero, c)):
        p = rot[0][0] * u[0] + rot[0][1] * u[1] + rot[0][2] * u[2]
        q = rot[1][0] * u[0] + rot[1][1] * u[1] + rot[1][2] * u[2]
        r = rot[2][0] * u[0] + rot[2][1] * u[1] + rot[2][2] * u[2]
        ok &= p % a == 0
        alpha = p // a
        q = q - alpha * x
        ok &= q % b == 0
        beta = q // b
        r = r - alpha * y - beta * z
        ok &= r % c == 0
    return ok


def _filtered_triples(T0: SubgroupHNF, coord_rots: tuple, d: int) -> list[SubgroupHNF]:
    import numpy as np

    t = _triples_array(d)
    ok = np.ones(len(t), dtype=bool)
    for rot in coord_rots:
        ok &= _invariant_mask(t, rot)
    out = []
    for row in t[ok]:
        a, b, c, x, y, z = (int(v) for v in row)
        out.append(_from_t0_coords(T0, [(a, x, y), (0, b, z), (0, 0, c)]))
    out.sort(key=lambda L: (-L.den, L.basis))
    return out


def literal_invariant_sublattices(
    T0: SubgroupHNF, rotations: Iterable[Mat3], d: int
) -> list[SubgroupHNF]:
    """Index-d sublattices of T0 invariant under the rotations, by filtering every HNF of index d.

    There is no recombination of prime-power parts, so this is an
    independent check of `invariant_sublattices`, with the same input checks
    and the same sorted output.
    """
    if T0.rank != 3:
        raise RankDeficient("invariant_sublattices requires a rank-3 subgroup")
    if d < 1:
        raise ValueError("index must be a positive integer")
    coord_rots = _coord_rotations(T0, tuple(tuple(tuple(row) for row in r) for r in rotations))
    return _filtered_triples(T0, coord_rots, d)


# ============================================================
# the maximal submodules of F_p³ from every line
# ============================================================


@lru_cache(maxsize=None)
def _every_line(p: int) -> tuple[IntVec, ...]:
    """The p² + p + 1 lines of F_p³, each as its vector whose first nonzero entry is 1."""
    return (
        *((1, s, t) for s in range(p) for t in range(p)),
        *((0, 1, t) for t in range(p)),
        (0, 0, 1),
    )


def _is_fixed(a: Sequence[Sequence[int]], v: IntVec, p: int) -> bool:
    """a·v ∥ v in F_p³: every 2×2 minor of the pair vanishes."""
    w = [sum(a[i][j] * v[j] for j in range(3)) for i in range(3)]
    return all((w[i] * v[j] - w[j] * v[i]) % p == 0 for i in range(3) for j in range(i + 1, 3))


def fixed_lines_by_enumeration(acts: Sequence[Sequence[Sequence[int]]], p: int) -> list[IntVec]:
    """The lines of F_p³ that every matrix maps to itself, tested one by one."""
    return [v for v in _every_line(p) if all(_is_fixed(a, v, p) for a in acts)]


def maximal_steps_by_enumeration(acts: Sequence[Sequence[Sequence[int]]], p: int) -> list[tuple[int, tuple]]:
    """(step, column HNF) of the preimage in ℤ³ of every maximal submodule of F_p³ under the matrices, sorted.

    A plane is invariant when every matrix maps each of its p + 1 lines into
    it; a fixed line is maximal when it lies in no invariant plane; {0} is
    maximal when neither exists.
    """
    every = _every_line(p)
    pZ = [tuple(p * (i == j) for j in range(3)) for i in range(3)]
    planes = []
    for w in every:
        plane = [u for u in every if sum(x * y for x, y in zip(w, u)) % p == 0]
        if all(sum(w[i] * a[i][j] * u[j] for i in range(3) for j in range(3)) % p == 0 for a in acts for u in plane):
            planes.append(plane)
    lines = [v for v in fixed_lines_by_enumeration(acts, p) if not any(v in plane for plane in planes)]
    if not planes and not lines:
        return [(3, hnf(pZ).basis)]
    return sorted([*((1, hnf([*plane, *pZ]).basis) for plane in planes), *((2, hnf([v, *pZ]).basis) for v in lines)])


# ============================================================
# family instances from their generators
# ============================================================


def instantiate_by_generators(tag: str, n: int, m: int | None = None) -> SubgroupHNF:
    """A family instance as the HNF of its own generators, each family written out; the arguments are not checked."""
    if tag == "CUBIC_BODY" and n % 2:
        # n·(1/2, 1/2, 1/2) over den 2; the content n of these columns is odd, so the record is canonical
        return SubgroupHNF(hnf_columns([(2 * n, 0, 0), (0, 2 * n, 0), (n, n, n)]), 2)
    gens = {
        "CUBIC_PRIMITIVE": [(n, 0, 0), (0, n, 0), (0, 0, n)],
        "CUBIC_FACE": [(2 * n, 0, 0), (n, n, 0), (n, 0, n)],
        "CUBIC_BODY": [(n, 0, 0), (0, n, 0), (n // 2, n // 2, n // 2)],
        "HEX_PRIMITIVE": [(n, 0, 0), (0, n, 0), (0, 0, m)],
        "HEX_ROT": [(2 * n, n, 0), (n, 2 * n, 0), (0, 0, m)],
    }[tag]
    return hnf(gens)


# ============================================================
# the records' checks as first written
# ============================================================


def outcome(make, *args) -> tuple:
    """make(*args) as a plain tuple, or the type and message of the exception it raises."""
    try:
        return tuple(make(*args))
    except Exception as e:
        return type(e), str(e)


def subgroup_hnf_by_column_loop(basis, den) -> tuple:
    """The (basis, den) that `SubgroupHNF` keeps, checked by one loop over the columns at every rank; ValueError as it raises."""
    if type(basis) is not tuple:
        raise ValueError("basis must be a tuple of columns")
    pivot = -1
    for j, col in enumerate(basis):
        if type(col) is not tuple or len(col) != 3:
            raise ValueError("basis columns must be integer 3-tuples")
        c0, c1, c2 = col
        if type(c0) is not int or type(c1) is not int or type(c2) is not int:
            raise ValueError("basis columns must be integer 3-tuples")
        r = 0 if c0 else 1 if c1 else 2
        p = col[r]
        if r <= pivot or p <= 0:
            raise ValueError("basis must be a column HNF: ascending pivot rows, positive pivots")
        for prev in basis[:j]:
            if not 0 <= prev[r] < p:
                raise ValueError("basis must be a column HNF: entries left of a pivot in [0, pivot)")
        pivot = r
    if type(den) is not int or den <= 0:
        raise ValueError("den must be a positive integer D")
    if den != 1 and math.gcd(den, *itertools.chain.from_iterable(basis)) != 1:
        raise ValueError("den must be minimal: D and the basis content must be coprime")
    return basis, den


def _positive_parameter(d, name: str) -> None:
    if type(d) is not int or d < 1:
        raise ValueError(f"{name} must be a positive integer, got {d!r}")


def lattice_family_by_index_checks(tag, n, m=None) -> tuple:
    """The (tag, n, m) that `LatticeFamily` keeps, each parameter checked in its own call; ValueError as it raises."""
    if tag not in FAMILY_TAGS:
        raise ValueError(f"unknown family tag {tag!r}")
    _positive_parameter(n, "family parameter n")
    if tag in HEX_TAGS:
        if m is None:
            raise ValueError("hexagonal families require a positive parameter m")
        _positive_parameter(m, "family parameter m")
    elif m is not None:
        raise ValueError("cubic families take a single parameter")
    return tag, n, m


# ============================================================
# survey rows by the per-lattice route
# ============================================================


_UNIT_INSTANCES = {tag: instantiate_by_generators(tag, 1, 1) for tag in FAMILY_TAGS}


def match_family_by_units(L: SubgroupHNF, frame: Frame) -> LatticeFamily:
    """The family instance equal to L, found by comparing its basis with k times each n = 1 instance's.

    A cubic instance n·B/u has the canonical basis k·B over D = u/g, for
    g = gcd(n, u) and k = n/g its first pivot; a hexagonal instance has the
    planar columns of k·B and the third pivot m.
    """
    if L.rank != 3:
        raise RankDeficient("match_family requires a rank-3 subgroup")
    D, k = L.den, L.basis[0][0]
    if frame.name == "CUBIC":
        for tag in CUBIC_TAGS:
            unit = _UNIT_INSTANCES[tag]
            u = unit.den
            n = k * u // D
            if D * math.gcd(n, u) == u and L.basis == tuple(tuple(k * x for x in col) for col in unit.basis):
                return LatticeFamily(tag, n)
    elif D == 1:
        for tag in HEX_TAGS:
            if L.basis[:2] == tuple(tuple(k * x for x in col) for col in _UNIT_INSTANCES[tag].basis[:2]):
                return LatticeFamily(tag, k, L.basis[2][2])
    raise UnmatchedLattice(f"no closed-form family matches covolume {covolume(L)}")


def in_t0_by_lattice(T0: SubgroupHNF, lattices: Iterable[tuple]) -> list[SubgroupHNF]:
    """Integer HNFs in T0-coordinates mapped to T0 one at a time, sorted by (−D, basis)."""
    out = [_from_t0_hnfs(T0, (M,))[0] for M in lattices]
    out.sort(key=lambda L: (-L.den, L.basis))
    return out


def survey_rows_by_lattice(G: SpaceGroup, max_index: int) -> list[tuple[SubgroupHNF, LatticeFamily, int]]:
    """The rows of `normal_translation_subgroups(G, max_index)`, index by index, each index's lattices mapped and matched one at a time."""
    coord_rots = _coord_rotations(G.T0, _rotation_generators(G))
    rows = []
    for d in range(1, max_index + 1):
        rows += [(L, match_family_by_units(L, G.frame), G.point_order * d) for L in in_t0_by_lattice(G.T0, _of_index(coord_rots, d))]
    return rows


# ============================================================
# frame symmetries
# ============================================================


def frame_symmetries(frame: Frame) -> tuple:
    """Integer matrices with entries in {-1, 0, 1} of determinant ±1 preserving the frame metric.

    Every triple of columns of the right squared lengths goes through the
    determinant and metric checks; the result is sorted.  For `CUBIC_FRAME`
    and `HEX_FRAME` the package's exact Cauchy–Schwarz box is this window.
    """
    gram = frame.gram
    short = list(itertools.product((-1, 0, 1), repeat=3))

    def norm(v: IntVec) -> int:
        return sum(v[a] * gram[a][b] * v[b] for a in range(3) for b in range(3))

    columns = [[v for v in short if norm(v) == gram[j][j]] for j in range(3)]
    out = []
    for cols in itertools.product(*columns):
        rows = tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))
        if abs(mat_det(rows)) == 1 and preserves_metric(rows, gram):
            out.append(rows)
    return tuple(sorted(out))


def lattice_symmetries_by_conversion(frame: Frame, h: Sequence[Sequence[int]]) -> tuple:
    """{H⁻¹SH : S in `frame_symmetries`, H⁻¹SH integral}, sorted, for the basis whose columns are those of h.

    These are the symmetries of the basis's own Gram matrix Hᵀ·gram·H,
    converted one by one from the frame's through the `Fraction` inverse
    `mat_inv`, where the package searches that Gram matrix directly.
    """
    h_inv = mat_inv(mat(h))
    converted = (_integral(matmul(matmul(h_inv, s), h)) for s in frame_symmetries(frame))
    return tuple(sorted(m for m in converted if m is not None))


# ============================================================
# smoothing by rescan
# ============================================================


def suppress_valence_two_by_rescan(g: PeriodicGraph) -> PeriodicGraph:
    """Smooth out valence-2 vertices one at a time, the first in vertex order each time, rescanning every edge after each."""
    edges = list(g.edges)
    alive = [True] * len(g.vertices)
    while True:
        incident: dict[int, list[int]] = {}
        for pos, (i, j, _) in enumerate(edges):
            incident.setdefault(i, []).append(pos)
            incident.setdefault(j, []).append(pos)
        target = None
        for v in range(len(g.vertices)):
            if not alive[v]:
                continue
            pos = incident.get(v, [])
            if len(pos) == 2 and pos[0] != pos[1]:
                target = v
                break
        if target is None:
            break
        p1, p2 = incident[target]
        i1, j1, s1 = edges[p1]
        if j1 != target:
            i1, j1, s1 = j1, i1, (-s1[0], -s1[1], -s1[2])
        i2, j2, s2 = edges[p2]
        if i2 != target:
            i2, j2, s2 = j2, i2, (-s2[0], -s2[1], -s2[2])
        merged = _normalize_edge(i1, j2, (s1[0] + s2[0], s1[1] + s2[1], s1[2] + s2[2]))
        edges = [e for pos, e in enumerate(edges) if pos not in (p1, p2)]
        edges.append(merged)
        alive[target] = False
    keep = [v for v in range(len(g.vertices)) if alive[v]]
    order = {v: i for i, v in enumerate(keep)}
    return PeriodicGraph(
        group=g.group,
        T0=g.T0,
        vertices=tuple(g.vertices[v] for v in keep),
        edges=tuple(_normalize_edge(order[i], order[j], s) for i, j, s in edges),
    )


# ============================================================
# the verdict by constraint word
# ============================================================


def constraint_holds(constraint: str, n: int, m: int | None) -> bool:
    """Whether the reduced parameters (n, m) of a family instance meet its constraint word."""
    if constraint == "none":
        return True
    if constraint == "2∤n":
        return n % 2 == 1
    if constraint == "3∤n":
        return n % 3 != 0
    if constraint == "m=1":
        return m == 1
    raise ValueError(f"unknown constraint {constraint!r}")
