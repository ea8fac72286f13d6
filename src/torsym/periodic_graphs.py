"""Singular sets of the six groups as exact shift-labeled periodic graphs."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple, Sequence

from .errors import Disconnected, InvariantViolation, NotASubgroup
from .lattices import (
    IDENTITY,
    SubgroupHNF,
    Vec3,
    _from_t0_hnfs,
    IntMat,
    IntVec,
    adjugate,
    as_fraction,
    as_int,
    checked_record,
    coord_numerators,
    from_numerators,
    hnf_columns,
    hnf_reduce,
    index,
    int_matvec,
    invariant_coords_matrix,
    is_subgroup,
    join,
    mat_det,
    matmul,
    relative_integer_basis,
    rotation_axis,
    smith_form,
    solve_congruence,
    unimodular_inverse,
)
from .spacegroups import (
    SpaceGroup,
    fixing_cosets,
)

__all__ = [
    "PeriodicGraph", "SingularEdge", "cycle_image_lattice", "edge_orbit_graph", "lift_connected",
    "lift_connected_bruteforce", "lift_genus", "marked_edges", "singular_graph", "suppress_valence_two",
]

Edge = tuple[int, int, IntVec]
Segment = tuple[Vec3, Vec3]
# integer numerators over the den of a group's `_SingularData`, in T0-coordinates
ScaledSegment = tuple[IntVec, IntVec]
# solved fixed points y/top in the basis of T0 (see _fixed_points)
Corners = list[tuple[list[IntVec], int]]
Germs = tuple[tuple[frozenset[IntVec], int], ...]  # germ orbits at a point with their indices (see _germ_orbits)

# ============================================================
# shift-labeled periodic graphs
# ============================================================


def _normalize_edge(i: int, j: int, s: IntVec) -> Edge:
    """Canonical orientation of an edge under (i, j, s) ≡ (j, i, -s)."""
    r = (-s[0], -s[1], -s[2])
    if j < i or (i == j and r > s):
        return (j, i, r)
    return (i, j, s)


class PeriodicGraph(checked_record("PeriodicGraph", "group T0 vertices edges")):
    """Finite quotient graph over a rank-3 lattice, edges labeled by cell shifts."""

    __slots__ = ()

    def __new__(cls, group: str, T0: SubgroupHNF, vertices: Sequence, edges: Sequence[Edge]) -> PeriodicGraph:
        verts = tuple(tuple(as_fraction(x) for x in v) for v in vertices)
        for v in verts:
            if len(v) != 3 or any(x < 0 or x >= 1 for x in v):
                raise ValueError("vertices must be 3-vectors in the cell [0,1)^3")
        normalized = []
        for i, j, s in edges:
            if not (0 <= i < len(verts) and 0 <= j < len(verts)):
                raise ValueError("edge endpoint index out of range")
            if len(s) != 3:
                raise ValueError("edge shifts must be integer 3-vectors")
            normalized.append(_normalize_edge(i, j, tuple(map(as_int, s))))
        return tuple.__new__(cls, (group, T0, verts, tuple(sorted(normalized))))

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "t0": self.T0.to_json(),
            "vertices": [[str(x) for x in v] for v in self.vertices],
            "edges": [[i, j, list(s)] for i, j, s in self.edges],
        }


class SingularEdge(checked_record("SingularEdge", "segment edge_index link orbit_id")):
    """One straight segment of the singular set with its local rotation data."""

    __slots__ = ()

    def __new__(cls, segment: Segment, edge_index: int, link: Sequence[int], orbit_id: int) -> SingularEdge:
        seg = tuple(tuple(as_fraction(x) for x in p) for p in segment)
        if len(seg) != 2 or any(len(p) != 3 for p in seg):
            raise ValueError("a segment must have two endpoints, each a 3-vector")
        if seg[0] == seg[1]:
            raise ValueError("segment endpoints must be distinct")
        if edge_index < 2:
            raise ValueError("edge index must be at least 2")
        if len(link) != 4:
            raise ValueError("link must list exactly four germ indices")
        return tuple.__new__(cls, (seg, edge_index, tuple(sorted(map(as_int, link))), orbit_id))

    def to_json(self) -> dict:
        return {
            "segment": [[str(x) for x in p] for p in self.segment],
            "edge_index": self.edge_index,
            "link": list(self.link),
            "orbit_id": self.orbit_id,
        }


# ============================================================
# vertices and the axes through them modulo the lattice
# ============================================================


def _fixed_points(G: SpaceGroup) -> Corners:
    """Vertices modulo T0, as points y/top in the basis of T0, one solve per class of half-turn pairs.

    B·y is fixed by x ↦ R·x + t + w for some w ∈ T0 iff A·y ≡ −τ (mod ℤ³),
    with A = B⁻¹(R − I)B in the basis B of T0, integral because T0 is
    invariant, and τ = B⁻¹t.  A corner entry holds the common fixed points of
    two half-turns about non-parallel axes, finitely many because the stacked
    6×3 system has rank 3.

    Half-turn pairs suffice.  A vertex is fixed by two rotations about
    non-parallel axes, so its stabilizer, a finite rotation group that is not
    cyclic, is D_n with n ≥ 2, T or O (I is not crystallographic).  D_n has n
    half-turns about distinct axes perpendicular to its main axis, and T and O
    contain the three half-turns of their D_2.  So every vertex is fixed by two
    half-turns about non-parallel axes.

    One congruence per class is enough.  For g in G, Fix(g·h·g⁻¹) = g·Fix(h),
    and g·h·g⁻¹ turns about the image of h's axis.  So the unordered pairs of
    half-turn axes fall into classes under the cosets' rotation parts, and
    every vertex is an image of a common fixed point of the first pair in its
    class under the coset maps y ↦ A·y + τ (see `_vertices_mod_t0`).
    Conjugate systems share their Smith form, so the whole class shares one
    top.
    """
    cosets, den = G.maps
    system = [(tuple(tuple(a[i][j] - (i == j) for j in range(3)) for i in range(3)), (-t[0], -t[1], -t[2])) for a, t in cosets]
    corners = []
    for k1, k2 in _rotation_classes(tuple(a for a, _ in cosets)):
        (a1, r1), (a2, r2) = system[k1], system[k2]
        points, top, kernel = solve_congruence(a1 + a2, r1 + r2, den)
        if kernel:
            raise InvariantViolation("two half-turns about non-parallel axes fix a line")
        corners.append((points, top))
    return corners


@lru_cache(maxsize=None)
def _rotation_classes(rots: tuple[IntMat, ...]) -> tuple[tuple[int, int], ...]:
    """`_fixed_points`' classes of half-turn pairs, each as the cosets of its first pair.

    A half-turn has trace −1, and each axis direction e is keyed by its first
    half-turn coset.  Only the rotations in T0-coordinates enter, so P432 and
    P4_232 share them, and so do I432 and I4_132.
    """
    keyed: dict[IntVec, int] = {}
    for k, a in enumerate(rots):
        if a[0][0] + a[1][1] + a[2][2] == -1:
            keyed.setdefault(rotation_axis(a), k)
    pairs = [tuple(sorted(p)) for p in itertools.combinations(keyed, 2)]
    swept = _orbit_sweep(pairs, lambda a, p: tuple(sorted(_turned(a, e) for e in p)), rots)
    return tuple((keyed[e1], keyed[e2]) for e1, e2 in dict.fromkeys(swept.values()))


def _orbit_sweep(items, act, moves) -> dict:
    """Every image act(m, x) of the items under the moves (the identity among them), to the first x reaching it."""
    out: dict = {}
    for x in items:
        if x not in out:
            for m in moves:
                out.setdefault(act(m, x), x)
    return out


@lru_cache(maxsize=None)
def _axis_basis(e: IntVec) -> tuple[IntMat, IntMat]:
    """A unimodular U with U·e = ±e₁ for a primitive integer vector e, and U⁻¹.

    U is the left factor of the Smith form of the column e (Cohen, GTM 138,
    §2.4), whose one invariant is 1.  U maps ℤ³ onto itself and the line
    through y along e onto the line through U·y along e₁, so two lines along e
    are ℤ³-translates iff their points y agree in (U·y)₁,₂ modulo 1, and
    (U·y)₀ modulo 1 places a point along its line.
    """
    u, _, _ = smith_form([[x] for x in e])
    rows = tuple(tuple(row) for row in u)
    return rows, unimodular_inverse(rows)


def _affine(move: tuple[IntMat, IntVec], y: IntVec) -> IntVec:
    """A·y + t for the move (A, t), in integers; the orbit sweeps call it once per image."""
    ((a0, a1, a2), (b0, b1, b2), (c0, c1, c2)), (t0, t1, t2) = move
    y0, y1, y2 = y
    return (a0 * y0 + a1 * y1 + a2 * y2 + t0, b0 * y0 + b1 * y1 + b2 * y2 + t1, c0 * y0 + c1 * y1 + c2 * y2 + t2)


def _turned(a: IntMat, e: IntVec) -> IntVec:
    """The direction A·e of a primitive e under a unimodular A, with its first nonzero entry positive."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a
    e0, e1, e2 = e
    x0, x1, x2 = a0 * e0 + a1 * e1 + a2 * e2, b0 * e0 + b1 * e1 + b2 * e2, c0 * e0 + c1 * e1 + c2 * e2
    return (x0, x1, x2) if (x0 or x1 or x2) > 0 else (-x0, -x1, -x2)


def _vertices_mod_t0(den: int, moves: Sequence[tuple[IntMat, IntVec]], corners: Corners) -> list[IntVec]:
    """Vertex classes, the solved corners swept by every coset move, reduced into the cell [0,1)³ and sorted."""
    solved = [tuple(x * (den // top) % den for x in y) for points, top in corners for y in points]
    return sorted(_orbit_sweep(solved, lambda m, y: tuple(x % den for x in _affine(m, y)), moves))


def _axis_segments(den: int, germs: dict[IntVec, Germs]) -> list[ScaledSegment]:
    """The maximal vertex-free straight segments of the axes through the vertices, one period of each axis class.

    germs maps each vertex class to its `_germ_orbits`.  A rotation about an
    axis through v fixes v, so the germ directions at v with their first
    nonzero entry positive are exactly the axes through v.  In the
    coordinates U·y of `_axis_basis`, the axis along e through v is the line
    (x, c₁, c₂) with (c₁, c₂) = (U·v)₁,₂ mod den and period den in x, and v
    meets it at x = (U·v)₀ mod den.  Consecutive such x on one line, the
    first repeated one period on, bound the segments.  An axis through no
    vertex, a closed singular circle, carries no segment.
    """
    on_line: dict[tuple[IntVec, int, int], set[int]] = {}
    for v, orbits in germs.items():
        for dirs, _ in orbits:
            for e in dirs:
                if (e[0] or e[1] or e[2]) > 0:
                    x, c1, c2 = int_matvec(_axis_basis(e)[0], v)
                    on_line.setdefault((e, c1 % den, c2 % den), set()).add(x % den)
    out = []
    for (e, c1, c2), found in on_line.items():
        xs = sorted(found)
        xs.append(xs[0] + den)
        u_inv = _axis_basis(e)[1]
        pts = [int_matvec(u_inv, (x, c1, c2)) for x in xs]
        out.extend(zip(pts, pts[1:]))
    return out


# ============================================================
# germ orbits and local indices
# ============================================================


@lru_cache(maxsize=None)
def _germ_orbits(rots: tuple[IntMat, ...]) -> Germs:
    """Orbits of outgoing axis germs at a singular point, each with its index, memoised per stabilizer.

    rots are the rotation parts of the point's stabilizer, the identity left
    out, so the orbit of a germ u is u and its images A·u.
    """
    by_dir = Counter(rotation_axis(rot) for rot in rots)
    index_of = {u: count + 1 for d, count in by_dir.items() for u in (d, (-d[0], -d[1], -d[2]))}
    first = _orbit_sweep(index_of, int_matvec, (IDENTITY, *rots))
    if not first.keys() <= index_of.keys():
        raise InvariantViolation("stabilizer does not permute the germ directions")
    if any(index_of[u] != index_of[x] for u, x in first.items()):
        raise InvariantViolation("germ orbit mixes axes of different indices")
    orbits: dict[IntVec, set[IntVec]] = {}
    for u, x in first.items():
        orbits.setdefault(x, set()).add(u)
    out = [(frozenset(members), index_of[x]) for x, members in orbits.items()]
    return tuple(sorted(out, key=lambda o: (o[1], min(o[0]))))


def _edge_data(den: int, seg: ScaledSegment, germs: dict[IntVec, Germs]) -> tuple[int, tuple[int, int, int, int]]:
    """Edge index and four-germ link signature of a singular segment, its ends read off the vertex classes' germ orbits."""
    own = set()
    others: list[int] = []
    for p, q in (seg, seg[::-1]):
        diff = (q[0] - p[0], q[1] - p[1], q[2] - p[2])
        g = math.gcd(*diff)
        u = (diff[0] // g, diff[1] // g, diff[2] // g)
        rest = []
        for dirs, idx in germs[(p[0] % den, p[1] % den, p[2] % den)]:
            if u in dirs:
                own.add(idx)
            else:
                rest.append(idx)
        if len(rest) != 2:
            raise InvariantViolation("endpoint of a singular segment must be trivalent")
        others.extend(rest)
    if len(own) != 1:
        raise InvariantViolation("segment endpoints disagree on the edge index")
    return own.pop(), tuple(sorted(others))


# ============================================================
# the singular graph and its edge orbits
# ============================================================


def _canon_scaled(den: int, a: IntVec, b: IntVec) -> ScaledSegment:
    """Canonical ℤ³-translate of the unordered segment (a, b), on integer numerators over den.

    Of the two translates that put one end into the cell [0,1)³, the smaller.
    The basis H of T0 is lower triangular with a positive diagonal, so this
    order is also the lexicographic order of the frame numerators H·n.
    """
    (a0, a1, a2), (b0, b1, b2) = a, b
    r0, r1, r2, s0, s1, s2 = a0 % den, a1 % den, a2 % den, b0 % den, b1 % den, b2 % den
    return min(
        ((r0, r1, r2), (b0 - a0 + r0, b1 - a1 + r1, b2 - a2 + r2)),
        ((s0, s1, s2), (a0 - b0 + s0, a1 - b1 + s1, a2 - b2 + s2)),
    )


def _image(den: int, move: tuple[IntMat, IntVec], seg: ScaledSegment) -> ScaledSegment:
    """Canonical form of the image of a segment under the move y ↦ A·y + t, on integer numerators over den."""
    return _canon_scaled(den, _affine(move, seg[0]), _affine(move, seg[1]))


def _segment_orbits(den: int, moves: Sequence[tuple[IntMat, IntVec]], raw: Sequence[ScaledSegment]) -> list[list[ScaledSegment]]:
    """The canonical segments grouped into G-orbits, each sorted, in order of their first member.

    A lattice translation leaves the canonical form unchanged, so the coset
    moves sweep each orbit from its least member.
    """
    segments = {_canon_scaled(den, a, b) for a, b in raw}
    first = _orbit_sweep(sorted(segments), partial(_image, den), moves)
    if not first.keys() <= segments:
        raise InvariantViolation("a group element maps a singular segment outside the singular set")
    orbits: dict[ScaledSegment, list[ScaledSegment]] = {}
    for seg in sorted(first):
        orbits.setdefault(first[seg], []).append(seg)
    return list(orbits.values())


class _SingularData(NamedTuple):
    """Cached singular-set decomposition of one space group, in the basis of T0, where the lattice is ℤ³.

    Points are integer numerators over one den, which clears the solved
    vertices y/top, every coset translation of `SpaceGroup.maps` and every
    translation x/top of the `_normalizer_solutions` (s, x, top).  moves and
    normalizer hold the coset maps and those solutions as (linear part,
    translation numerators over den).  vertex_classes, orbit_of and orbits
    hold points in the same numerators: a point's cell and its
    representative in [0,1)³ are one divmod by den per coordinate.  The
    rotation axes are not kept: every segment lies on an axis through a
    vertex, and an axis through none adds no edge.
    """

    den: int
    moves: list[tuple[IntMat, IntVec]]
    normalizer: list[tuple[IntMat, IntVec]]
    vertex_classes: list[IntVec]
    orbit_of: dict[ScaledSegment, int]
    orbits: list[list[ScaledSegment]]
    edges: tuple[SingularEdge, ...]


@lru_cache(maxsize=None)
def _singular_data(G: SpaceGroup) -> _SingularData:
    """The singular set of G in T0-coordinates, with frame rationals built only for the public values.

    One stabilizer scan per vertex class (`fixing_cosets`) gives its germ
    orbits, which both name the axes through it (`_axis_segments`) and
    label the segment ends (`_edge_data`).
    """
    corners = _fixed_points(G)
    maps = _normalizer_solutions(G)
    cosets, cden = G.maps
    den = math.lcm(*(top for _, top in corners), cden, *(top // math.gcd(top, *y) for _, y, top in maps))
    moves = [(a, tuple(x * (den // cden) for x in t)) for a, t in cosets]
    normalizer = [(a, tuple(x * (den // top) for x in y)) for a, y, top in maps]
    verts = _vertices_mod_t0(den, moves, corners)
    germs = {v: _germ_orbits(tuple(moves[k][0] for k in fixing_cosets(moves, den, v) if moves[k][0] != IDENTITY)) for v in verts}
    orbits = _segment_orbits(den, moves, _axis_segments(den, germs))
    orbit_of = {seg: oid for oid, members in enumerate(orbits) for seg in members}
    edges = []
    for oid, members in enumerate(orbits):
        edge_index, link = _edge_data(den, members[0], germs)
        seg = (from_numerators(members[0][0], den, G.T0), from_numerators(members[0][1], den, G.T0))
        edges.append(SingularEdge(segment=seg, edge_index=edge_index, link=link, orbit_id=oid))
    return _SingularData(den, moves, normalizer, verts, orbit_of, orbits, tuple(edges))


def singular_graph(G: SpaceGroup) -> list[SingularEdge]:
    """All singular segments modulo the lattice, grouped into group orbits."""
    data = _singular_data(G)
    return [
        rep._replace(segment=(from_numerators(seg[0], data.den, G.T0), from_numerators(seg[1], data.den, G.T0)))
        for rep in data.edges
        for seg in data.orbits[rep.orbit_id]
    ]


# ============================================================
# marked edges
# ============================================================


def _link_euler12(link: Sequence[int]) -> int:
    """12·χ of a link's orbifold S²(a₁, …, a₄), χ = 2 − Σ(1 − 1/aᵢ): an integer for the crystallographic orders 2, 3, 4, 6."""
    return 24 - sum(12 - 12 // a for a in link)


def _marked_link() -> tuple[tuple[int, ...], int]:
    """The link of largest negative χ over the crystallographic orders, and 2/(−χ), the factor of g − 1 in the group order.

    G/T acts on the boundary of a regular neighbourhood of an edge's lifted
    orbit, of genus g, with the link's orbifold as quotient, so by
    Riemann–Hurwitz 2 − 2g = |G/T|·χ and |G/T| = 2/(−χ)·(g − 1): largest
    for the negative χ nearest 0.  That link is (2, 2, 2, 3), χ = −1/6,
    which gives 12.  A tie raises InvariantViolation.
    """
    links = itertools.combinations_with_replacement((2, 3, 4, 6), 4)
    (c, link), (tie, other) = sorted((-x, a) for a in links if (x := _link_euler12(a)) < 0)[:2]
    if c == tie:
        raise InvariantViolation(f"the links {link} and {other} tie at 12·χ = {-c}: no one marked link")
    return link, 24 // c


_MARKED_LINK, _ORDER_PER_GENUS = _marked_link()


@lru_cache(maxsize=None)
def _lattice_symmetries(gram: IntMat) -> tuple[IntMat, ...]:
    """Integer matrices of determinant ±1 preserving the integer Gram matrix of a lattice basis.

    Column j of such a matrix is a vector x with xᵀ·gram·x = gram[j][j].
    Cauchy–Schwarz for the form gives xᵢ² ≤ (xᵀ·gram·x)·(gram⁻¹)ᵢᵢ, so each
    column is drawn from the exact box |xᵢ| ≤ √(gram[j][j]·adj(gram)ᵢᵢ / det
    gram), and a column joins a partial triple only when its products with
    the columns before it are the Gram entries gram[i][j].  So every full
    triple has mᵀ·gram·m = gram, and det m = ±1 because gram is positive
    definite.  The result is in row-major lexicographic order.
    """
    adj, det = adjugate(gram), mat_det(gram)

    def form(u: IntVec, w: IntVec) -> int:
        return u[0] * w[0] + u[1] * w[1] + u[2] * w[2]

    columns = []  # each candidate v with gram·v, so each u·gram·v is one dot product
    for j in range(3):
        box = itertools.product(*(range(-b, b + 1) for b in (math.isqrt(gram[j][j] * adj[i][i] // det) for i in range(3))))
        columns.append([(v, w) for v in box if form(v, w := int_matvec(gram, v)) == gram[j][j]])
    triples: list[tuple[IntVec, ...]] = [()]
    for j, column in enumerate(columns):
        triples = [t + (v,) for t in triples for v, w in column if all(form(u, w) == gram[i][j] for i, u in enumerate(t))]
    return tuple(sorted(tuple(zip(*cols)) for cols in triples))


def _normalizer_solutions(G: SpaceGroup) -> tuple[tuple[IntMat, IntVec, int], ...]:
    """A transversal of the group in its affine normalizer, up to lattice translations, in T0-coordinates.

    The maps are y ↦ s·y + x/top in the basis B = H/q of T0, as (s, x, top)
    with x in [0, top), sorted.  s runs over the integer isometries of T0's
    own Gram matrix Hᵀ·gram·H (improper ones included): these are exactly the
    frame isometries S that preserve T0, written as s = B⁻¹SB.  One s is kept
    per right coset P·s of the point group P, with the identity standing for
    P itself: (A, τ)∘(s, x) = (As, Ax + τ) differs from (s, x) by an element
    of G, so the other members of the coset add nothing modulo G.  For each
    such s, x runs over all translations modulo ℤ³ that make the map
    normalize G.  Conjugating a rotation generator (A, τ) gives
    (sAs⁻¹, sτ + (I − sAs⁻¹)x), which lies in G iff
    (sAs⁻¹ − I)x ≡ sτ − τ' (mod ℤ³) for the coset (sAs⁻¹, τ') of G.  Stacked
    over the generators, these congruences have full rank and their Smith
    form lists the finitely many x modulo ℤ³.  τ is taken from the
    generator's coset: that moves sτ by s·ℤ³ = ℤ³, and the right-hand sides
    stay integer numerators over the den of `SpaceGroup.maps`.
    """
    T0 = G.T0
    cosets, den = G.maps
    coset_of = dict(cosets)
    gens = [invariant_coords_matrix(g.rot, T0) for g in G.generators if g.rot != IDENTITY]
    covered: set[IntMat] = set()
    out = []
    gram = matmul(matmul(T0.basis, G.frame.gram), tuple(zip(*T0.basis)))
    # the identity first, then by largest absolute entry, then row-major: −I leads P·(−I) for a centred cubic T0
    for s in sorted(_lattice_symmetries(gram), key=lambda m: (m != IDENTITY, max(map(abs, m[0] + m[1] + m[2])))):
        if s in covered:
            continue
        covered.update(matmul(a, s) for a in coset_of)
        s_inv = unimodular_inverse(s)
        system: list[IntVec] = []
        rhs: list[int] = []
        for rot in gens:
            conj = matmul(matmul(s, rot), s_inv)
            target = coset_of.get(conj)
            if target is None:
                break
            system.extend(
                tuple(conj[i][j] - (1 if i == j else 0) for j in range(3)) for i in range(3)
            )
            rhs.extend(x - y for x, y in zip(int_matvec(s, coset_of[rot]), target))
        else:
            points, top, kernel = solve_congruence(system, rhs, den)
            if kernel:
                raise InvariantViolation("normalizer translations of a group are not discrete")
            out.extend((s, tuple(x % top for x in y), top) for y in points)
    return tuple(sorted(out))


def marked_edges(G: SpaceGroup) -> list[SingularEdge]:
    """One representative per orbit class whose neighborhood boundary is S²(2,2,2,3).

    Orbits are classed up to conjugation: only the normalizer modulo G acts on
    G-orbits, through the transversal of `_normalizer_solutions`.  That transversal
    is the group N(G)/G, the identity among it, so one sweep over the orbit
    ids in ascending order reaches each class first through its least id.
    """
    data = _singular_data(G)
    qualifying = [e.orbit_id for e in data.edges if e.link == _MARKED_LINK]

    def act(move, oid: int) -> int | None:
        return data.orbit_of.get(_image(data.den, move, data.orbits[oid][0]))

    first = _orbit_sweep(qualifying, act, data.normalizer)
    if not first.keys() <= set(qualifying):
        raise InvariantViolation("normalizer map does not preserve the marked edges")
    return [data.edges[oid] for oid in sorted(set(first.values()))]


# ============================================================
# quotient graphs of edge orbits
# ============================================================


def edge_orbit_graph(G: SpaceGroup, e: SingularEdge, suppress: bool = True) -> PeriodicGraph:
    """Quotient graph of the full orbit of one singular edge, modulo the lattice.

    Each endpoint n/den in T0-coordinates has the cell n // den and the
    vertex (n mod den)/den in [0,1)³.  The edges, and their smoothing by
    `_smooth` unless suppress is False, stay on those integers, and one
    `PeriodicGraph` is built at the end.
    """
    data = _singular_data(G)
    den = data.den
    ends = [coord_numerators(p, G.T0) for p in e.segment]
    oid = None
    # a point that den does not clear is on no singular segment
    if not any(den % d for _, d in ends):
        oid = data.orbit_of.get(_canon_scaled(den, *(tuple(x * (den // d) for x in n) for n, d in ends)))
    if oid is None:
        raise ValueError("edge does not belong to this group's singular graph")
    # each end as (cell, vertex numerators)
    split = [[tuple(zip(*(divmod(x, den) for x in p))) for p in seg] for seg in data.orbits[oid]]
    verts = sorted({v for seg in split for _, v in seg})
    order = {v: i for i, v in enumerate(verts)}
    edges = [_normalize_edge(order[va], order[vb], (kb[0] - ka[0], kb[1] - ka[1], kb[2] - ka[2])) for (ka, va), (kb, vb) in split]
    if len(set(edges)) != len(edges):
        raise InvariantViolation("distinct straight segments produced a duplicate edge")
    keep, edges = _smooth(len(verts), edges) if suppress else (range(len(verts)), edges)
    vertices = tuple(tuple(Fraction(x, den) for x in verts[v]) for v in keep)
    return PeriodicGraph(group=G.name, T0=G.T0, vertices=vertices, edges=tuple(edges))


def suppress_valence_two(g: PeriodicGraph) -> PeriodicGraph:
    """Smooth out valence-2 vertices, concatenating their edge shifts."""
    keep, edges = _smooth(len(g.vertices), g.edges)
    return PeriodicGraph(group=g.group, T0=g.T0, vertices=tuple(g.vertices[v] for v in keep), edges=tuple(edges))


def _smooth(n: int, edges: Sequence[Edge]) -> tuple[list[int], list[Edge]]:
    """The vertices that stay when the valence-2 vertices of a multigraph on n vertices are smoothed, and its edges renumbered over them.

    One pass in vertex order.  Smoothing a vertex joins its two edges into
    one and changes no other valence, so no vertex becomes smoothable later;
    a vertex whose two ends are one loop stays.
    """
    live: list[Edge | None] = list(edges)
    incident: list[list[int]] = [[] for _ in range(n)]
    for pos, (i, j, _) in enumerate(live):
        incident[i].append(pos)
        incident[j].append(pos)
    keep = []
    for v, pos in enumerate(incident):
        if len(pos) != 2 or pos[0] == pos[1]:
            keep.append(v)
            continue
        # the path i → v → j through both edges
        p1, p2 = pos
        i, j1, s1 = live[p1]
        if j1 != v:
            i, s1 = j1, (-s1[0], -s1[1], -s1[2])
        i2, j, s2 = live[p2]
        if i2 != v:
            j, s2 = i2, (-s2[0], -s2[1], -s2[2])
        live[p1] = live[p2] = None
        live.append((i, j, (s1[0] + s2[0], s1[1] + s2[1], s1[2] + s2[2])))
        incident[i][incident[i].index(p1)] = len(live) - 1
        incident[j][incident[j].index(p2)] = len(live) - 1
    order = {v: k for k, v in enumerate(keep)}
    return keep, [_normalize_edge(order[i], order[j], s) for i, j, s in filter(None, live)]


# ============================================================
# lifting criteria
# ============================================================


def _adjacency(g: PeriodicGraph) -> list[list[tuple[int, IntVec]]]:
    """The (neighbour, shift) pairs at each vertex: edge (i, j, s) as (j, s) at i and (i, −s) at j; Disconnected with no vertex."""
    if not g.vertices:
        raise Disconnected("graph has no vertices")
    adjacency: list[list[tuple[int, IntVec]]] = [[] for _ in g.vertices]
    for i, j, s in g.edges:
        adjacency[i].append((j, s))
        adjacency[j].append((i, (-s[0], -s[1], -s[2])))
    return adjacency


def cycle_image_lattice(g: PeriodicGraph) -> SubgroupHNF:
    """Lattice generated by the net shifts of the graph's fundamental cycles."""
    n = len(g.vertices)
    adjacency = _adjacency(g)
    potential: dict[int, IntVec] = {0: (0, 0, 0)}
    stack = [0]
    while stack:
        i = stack.pop()
        for j, s in adjacency[i]:
            if j not in potential:
                potential[j] = tuple(a + b for a, b in zip(potential[i], s))
                stack.append(j)
    if len(potential) != n:
        raise Disconnected("graph is not connected modulo the lattice")
    cycles = [tuple(potential[i][k] + s[k] - potential[j][k] for k in range(3)) for i, j, s in g.edges]
    return _from_t0_hnfs(g.T0, (hnf_columns(cycles),))[0]


def _check_sublattice(T: SubgroupHNF, T0: SubgroupHNF) -> None:
    if T.rank != 3 or not is_subgroup(T, T0):
        raise NotASubgroup("lift lattice must be a finite-index subgroup of T0")


def _lifts(I: SubgroupHNF, T: SubgroupHNF, T0: SubgroupHNF) -> bool:
    """The lift criterion: a graph over T0 with cycle image I has a connected preimage in the T-quotient torus iff I + T = T0."""
    _check_sublattice(T, T0)
    return join(I, T) == T0


def lift_connected(g: PeriodicGraph, T: SubgroupHNF) -> bool:
    """True iff the graph's preimage in the T-quotient torus is connected."""
    return _lifts(cycle_image_lattice(g), T, g.T0)


def lift_connected_bruteforce(g: PeriodicGraph, T: SubgroupHNF) -> bool:
    """A search of the lift: one copy (vertex, coset label) of each vertex per coset of T in T0.

    The label is the coset's representative reduced by the HNF of T in
    T0-coordinates; an edge (i, j, s) joins (i, x) to (j, x + s) and back.
    """
    _check_sublattice(T, g.T0)
    rel = relative_integer_basis(T, g.T0)
    adjacency = _adjacency(g)
    stack = [(0, (0, 0, 0))]
    seen = set(stack)
    while stack:
        i, x = stack.pop()
        for j, s in adjacency[i]:
            nxt = (j, hnf_reduce((x[0] + s[0], x[1] + s[1], x[2] + s[2]), rel))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(g.vertices) * rel[0][0] * rel[1][1] * rel[2][2]


def lift_genus(g: PeriodicGraph, T: SubgroupHNF) -> int:
    """Genus of the boundary of a regular neighborhood of the connected lift."""
    if not lift_connected(g, T):
        raise Disconnected("lift of the graph is not connected")
    k = index(T, g.T0)
    return (len(g.edges) - len(g.vertices)) * k + 1

