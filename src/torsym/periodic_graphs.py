"""Singular sets of the six groups as exact shift-labeled periodic graphs."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import Disconnected, NotASubgroup, SignatureCountMismatch
from .lattices import (
    SubgroupHNF,
    Vec3,
    _integer_frame,
    _over_common_denominator,
    cell_reducer,
    coords_in,
    coords_matrix,
    from_coords,
    hnf,
    index,
    int_affine,
    int_matvec,
    invariant_coords_matrix,
    is_subgroup,
    join,
    mat_det,
    mat_inv,
    matmul,
    numerators,
    primitive_integer,
    reduce_mod,
    reduce_mod_relative,
    relative_integer_basis,
    smith_form,
    solve_congruence,
    vadd,
    vneg,
    vscale,
    vsub,
    vec,
)
from .spacegroups import (
    Axis,
    Isometry,
    SpaceGroup,
    fixed_axis,
    frame_gram_int,
    is_pure_translation,
    make_group,
    preserves_metric,
    rotation_order,
    stabilizer_cosets,
)

IntVec = tuple[int, int, int]
Edge = tuple[int, int, IntVec]
Segment = tuple[Vec3, Vec3]
IntMat = tuple[tuple[int, int, int], ...]


# ============================================================
# shift-labeled periodic graphs
# ============================================================


def _normalize_edge(i: int, j: int, s: IntVec) -> Edge:
    """Canonical orientation of an edge under (i, j, s) ≡ (j, i, -s)."""
    s = (int(s[0]), int(s[1]), int(s[2]))
    r = (-s[0], -s[1], -s[2])
    if j < i or (i == j and r > s):
        return (j, i, r)
    return (i, j, s)


@dataclass(frozen=True)
class PeriodicGraph:
    """Finite quotient graph over a rank-3 lattice, edges labeled by cell shifts."""

    group: str
    T0: SubgroupHNF
    vertices: tuple[Vec3, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        verts = tuple(tuple(Fraction(x) for x in v) for v in self.vertices)
        for v in verts:
            if any(x < 0 or x >= 1 for x in v):
                raise ValueError("vertex coordinates must lie in the cell [0,1)^3")
        edges = []
        for i, j, s in self.edges:
            if not (0 <= i < len(verts) and 0 <= j < len(verts)):
                raise ValueError("edge endpoint index out of range")
            edges.append(_normalize_edge(i, j, s))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "t0": self.T0.to_json(),
            "vertices": [[str(x) for x in v] for v in self.vertices],
            "edges": [[i, j, list(s)] for i, j, s in self.edges],
        }


@dataclass(frozen=True)
class SingularEdge:
    """One straight segment of the singular set with its local rotation data."""

    segment: Segment
    edge_index: int
    link: tuple[int, int, int, int]
    orbit_id: int

    def __post_init__(self) -> None:
        seg = tuple(tuple(Fraction(x) for x in p) for p in self.segment)
        if seg[0] == seg[1]:
            raise ValueError("segment endpoints must be distinct")
        if self.edge_index < 2:
            raise ValueError("edge index must be at least 2")
        if len(self.link) != 4:
            raise ValueError("link must list exactly four germ indices")
        object.__setattr__(self, "segment", seg)
        object.__setattr__(self, "link", tuple(sorted(self.link)))

    def to_json(self) -> dict:
        return {
            "segment": [[str(x) for x in p] for p in self.segment],
            "edge_index": self.edge_index,
            "link": list(self.link),
            "orbit_id": self.orbit_id,
        }


# ============================================================
# exact line geometry
# ============================================================


def _heading(v: Sequence) -> IntVec:
    """Primitive integer vector pointing the same way as a nonzero rational v."""
    u = primitive_integer(v)
    f = [Fraction(x) for x in v]
    i0 = next(i for i in range(3) if u[i])
    if f[i0] * u[i0] < 0:
        return (-u[0], -u[1], -u[2])
    return u


def _axis_period(T0: SubgroupHNF, d: IntVec) -> Fraction:
    """Smallest s > 0 with s·d in the lattice, for a primitive direction d."""
    c = coords_in(vec(*d), T0)
    lcm = math.lcm(*(x.denominator for x in c))
    g = math.gcd(*(int(x * lcm) for x in c))
    return Fraction(lcm, g)


@lru_cache(maxsize=None)
def _plane_lattice(
    T0: SubgroupHNF, d: IntVec
) -> tuple[int, int, tuple[tuple[int, IntVec], ...]]:
    """The lattice projected along d onto the plane where d's first nonzero coordinate vanishes.

    Returns (i0, D, ((pivot row, column), …)): that coordinate's index, and
    the rank-2 image as (1/D)·(integer HNF) with each column's pivot row.
    """
    i0 = next(i for i in range(3) if d[i])
    lam = hnf(vsub(v, vscale(v[i0] / d[i0], vec(*d))) for v in T0.vectors())
    if lam.rank != 2:
        raise ValueError("projection of a rank-3 lattice must have rank 2")
    cols = tuple((next(r for r in range(3) if c[r]), c) for c in lam.basis)
    return i0, lam.scale.denominator, cols


def _axis_class(T0: SubgroupHNF, point: Sequence, d: IntVec) -> tuple[IntVec, Vec3]:
    """Canonical (direction, base) of the line through a point along d, modulo the lattice.

    The base is the projection of the point along d, translated by the plane
    lattice into its fundamental cell, so two lines along d are lattice
    translates of each other iff they have the same base.  d is primitive
    with its first nonzero coordinate positive.
    """
    i0, dd, cols = _plane_lattice(T0, d)
    x, den = _over_common_denominator(point)
    # the projection (d[i0]·x − x[i0]·d) / (den·d[i0]) as numerators over
    # den·d[i0]·D, over which a plane-lattice column c has numerators unit·c
    a, xi, unit = d[i0], x[i0], den * d[i0]
    w = [dd * (a * x[i] - xi * d[i]) for i in range(3)]
    for r, col in cols:
        k = w[r] // (unit * col[r])
        if k:
            w = [w[i] - k * unit * col[i] for i in range(3)]
    n = unit * dd
    return d, (Fraction(w[0], n), Fraction(w[1], n), Fraction(w[2], n))


def _unscaled(den: int, seg: tuple[IntVec, IntVec]) -> Segment:
    """The rational segment with the given integer numerators over den."""
    return tuple(tuple(Fraction(x, den) for x in p) for p in seg)  # type: ignore[return-value]


# ============================================================
# rotation axes and vertices modulo the lattice
# ============================================================


def _axis_index(G: SpaceGroup, base: Vec3, d: IntVec) -> int:
    """Order of the cyclic group of rotations in G fixing the line pointwise."""
    return sum(1 for c in stabilizer_cosets(base, G) if int_matvec(c.rot, d) == d)


def _fixed_point_congruences(G: SpaceGroup) -> list[tuple[IntMat, Vec3]]:
    """(A, −τ) for the rotation cosets (R, t) whose fixed points make up all the others'.

    B·y is fixed by x ↦ R·x + t + w for some w ∈ T0 iff A·y ≡ −τ (mod ℤ³),
    with A = B⁻¹(R − I)B in the basis B of T0, integral because T0 is
    invariant, and τ = B⁻¹t.  A rotation fixes the same line as its powers of
    order 2 or 3, and a coset has the same fixed points as its inverse, so
    only cosets of order 2, and one of each inverse pair of order 3, are kept.
    """
    out = []
    for c in G.cosets:
        order = rotation_order(c.rot)
        if order not in (2, 3) or (order == 3 and c.rot > matmul(c.rot, c.rot)):
            continue
        delta = tuple(
            tuple(c.rot[i][j] - (1 if i == j else 0) for j in range(3)) for i in range(3)
        )
        out.append((invariant_coords_matrix(delta, G.T0), vneg(coords_in(c.trans, G.T0))))
    return out


def _axes_mod_t0(G: SpaceGroup) -> list[Axis]:
    """All rotation-axis classes modulo the lattice, with full rotation indices.

    A has rank 2, so its Smith form U·A·V = diag(d₁, d₂, 0) splits the fixed
    points of a coset into d₁·d₂ lines modulo T0, or none for a screw.
    """
    found: dict[tuple[IntVec, Vec3], int] = {}
    for a, r in _fixed_point_congruences(G):
        points, kernel = solve_congruence(a, r)
        if len(kernel) != 1:
            raise ValueError("fixed set of a rotation is not a line")
        d = primitive_integer(from_coords(kernel[0], G.T0))
        for y in points:
            key = _axis_class(G.T0, from_coords(y, G.T0), d)
            if key not in found:
                found[key] = _axis_index(G, key[1], key[0])
    return [
        Axis(base=base, direction=d, order=found[(d, base)])
        for d, base in sorted(found)
    ]


def _vertices_mod_t0(G: SpaceGroup) -> list[Vec3]:
    """Vertex classes: common fixed points of two rotations about non-parallel axes, mod T0.

    The two congruences stacked into one 6×3 system have rank 3 exactly when
    the axes are not parallel, and then finitely many solutions mod ℤ³.
    """
    congruences = _fixed_point_congruences(G)
    pts = set()
    for k, (a1, r1) in enumerate(congruences):
        for a2, r2 in congruences[k + 1 :]:
            points, kernel = solve_congruence(a1 + a2, r1 + r2)
            if kernel:  # parallel axes
                continue
            pts.update(reduce_mod(from_coords(y, G.T0), G.T0)[0] for y in points)
    return sorted(pts)


def _axis_segments(
    G: SpaceGroup, axes: Sequence[Axis], verts: Sequence[Vec3]
) -> list[list[Segment]]:
    """For each axis, the maximal vertex-free straight segments covering one period.

    An axis gets an empty list when no vertex meets it (a circle component).
    A vertex class v meets the axis (b, d) iff the line through v along d is
    in the axis's class.  Then B⁻¹(v − b) = k + λ·e with k ∈ ℤ³ and
    e = B⁻¹·s₀d, the primitive lattice vector along the axis, so
    λ ≡ f·B⁻¹(v − b) (mod 1) for any integer f with f·e = 1, and v sits at
    b + λ·s₀d.  Points are integer numerators over one denominator, and
    B⁻¹ = q·adj(H)/(p·det H).
    """
    on_line: dict[tuple[IntVec, Vec3], list[Vec3]] = {}
    for d in {ax.direction for ax in axes}:
        for v in verts:
            on_line.setdefault(_axis_class(G.T0, v, d), []).append(v)
    _, adj, det, p, q = _integer_frame(G.T0)
    den = math.lcm(*(x.denominator for pt in (*verts, *(ax.base for ax in axes)) for x in pt))
    mod = p * det * den
    out = []
    for ax in axes:
        d = ax.direction
        dv = vec(*d)
        s0 = _axis_period(G.T0, d)
        # the Smith form of the primitive column e has U·e = e₁, so f is U's first row
        u, _, _ = smith_form([[int(x)] for x in coords_in(vscale(s0, dv), G.T0)])
        row = [q * sum(u[0][i] * adj[i][j] for i in range(3)) for j in range(3)]
        bn = numerators(ax.base, den)
        offs = set()
        for v in on_line.get((d, ax.base), ()):
            x = numerators(v, den)
            lam = row[0] * (x[0] - bn[0]) + row[1] * (x[1] - bn[1]) + row[2] * (x[2] - bn[2])
            offs.add(Fraction(lam % mod, mod) * s0)
        ss = sorted(offs)
        if ss:
            ss.append(ss[0] + s0)
        out.append(
            [
                (vadd(ax.base, vscale(a, dv)), vadd(ax.base, vscale(b, dv)))
                for a, b in zip(ss, ss[1:])
            ]
        )
    return out


# ============================================================
# disjoint sets
# ============================================================


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


# ============================================================
# germ orbits and local indices
# ============================================================


@lru_cache(maxsize=None)
def _rotation_direction(frame, rot: IntMat) -> IntVec:
    """Direction of the axis of a rotation; it does not depend on the translation part."""
    return fixed_axis(Isometry(frame, rot, (0, 0, 0))).direction


def _germ_orbits(p: Vec3, G: SpaceGroup) -> tuple[tuple[frozenset[IntVec], int], ...]:
    """Orbits of outgoing axis germs at a singular point, each with its index."""
    rots = [c.rot for c in stabilizer_cosets(p, G) if not is_pure_translation(c)]
    by_dir: dict[IntVec, int] = {}
    for rot in rots:
        d = _rotation_direction(G.frame, rot)
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
                raise ValueError("stabilizer does not permute the germ directions")
            classes.union(u, v)
    orbits = []
    for members in classes.groups():
        idx = {index_of[u] for u in members}
        if len(idx) != 1:
            raise ValueError("germ orbit mixes axes of different indices")
        orbits.append((frozenset(members), idx.pop()))
    return tuple(sorted(orbits, key=lambda o: (o[1], min(o[0]))))


def _edge_data(
    G: SpaceGroup,
    seg: Segment,
    germs,
) -> tuple[int, tuple[int, int, int, int]]:
    """Edge index and four-germ link signature of a singular segment."""
    own = set()
    others: list[int] = []
    for p, q in (seg, seg[::-1]):
        u = _heading(vsub(q, p))
        rest = []
        for dirs, idx in germs(p):
            if u in dirs:
                own.add(idx)
            else:
                rest.append(idx)
        if len(rest) != 2:
            raise ValueError("endpoint of a singular segment must be trivalent")
        others.extend(rest)
    if len(own) != 1:
        raise ValueError("segment endpoints disagree on the edge index")
    return own.pop(), tuple(sorted(others))


# ============================================================
# the singular graph and its edge orbits
# ============================================================


def _canon_scaled(reduce, a: IntVec, b: IntVec) -> tuple[IntVec, IntVec]:
    """Canonical lattice translate of the unordered segment (a, b), on integer numerators."""
    best = None
    for p, q in ((a, b), (b, a)):
        rep = reduce(p)[0]
        cand = (rep, (q[0] - p[0] + rep[0], q[1] - p[1] + rep[1], q[2] - p[2] + rep[2]))
        if best is None or cand < best:
            best = cand
    return best


def _canon_segment(T0: SubgroupHNF, a: Vec3, b: Vec3) -> Segment:
    """Canonical lattice translate of the unordered segment (a, b)."""
    den = math.lcm(T0.scale.denominator, *(x.denominator for x in (*a, *b)))
    seg = _canon_scaled(cell_reducer(T0, den), numerators(a, den), numerators(b, den))
    return _unscaled(den, seg)


@dataclass
class _SingularData:
    """Cached singular-set decomposition of one space group."""

    G: SpaceGroup
    axes: list[Axis]
    vertices: list[Vec3]
    circles: list[Axis]
    orbit_of: dict[Segment, int]
    orbits: list[list[Segment]]
    edges: tuple[SingularEdge, ...]


@lru_cache(maxsize=None)
def _singular_data(name: str) -> _SingularData:
    G = make_group(name)
    axes = _axes_mod_t0(G)
    verts = _vertices_mod_t0(G)
    raw: list[Segment] = []
    circles = []
    for ax, segs in zip(axes, _axis_segments(G, axes, verts)):
        if not segs:
            circles.append(ax)
        raw.extend(segs)
    # the orbit search runs on integer numerators over one common denominator
    den = math.lcm(
        G.T0.scale.denominator,
        *(x.denominator for c in G.cosets for x in c.trans),
        *(x.denominator for seg in raw for p in seg for x in p),
    )
    reduce = cell_reducer(G.T0, den)
    moves = [(c.rot, numerators(c.trans, den)) for c in G.cosets]
    segments = {_canon_scaled(reduce, numerators(a, den), numerators(b, den)) for a, b in raw}
    seen: set[tuple[IntVec, IntVec]] = set()
    orbit_of: dict[Segment, int] = {}
    orbits: list[list[Segment]] = []
    for key in sorted(segments):
        if key in seen:
            continue
        # every element of G is a coset representative followed by a lattice
        # translation, which leaves the canonical form unchanged
        a, b = key
        members = set()
        for rot, t in moves:
            ra, rb = int_matvec(rot, a), int_matvec(rot, b)
            members.add(
                _canon_scaled(
                    reduce,
                    (ra[0] + t[0], ra[1] + t[1], ra[2] + t[2]),
                    (rb[0] + t[0], rb[1] + t[1], rb[2] + t[2]),
                )
            )
        if not members <= segments:
            raise ValueError(
                "internal invariant violated: a group element maps a singular "
                "segment to a segment outside the singular set"
            )
        seen |= members
        orbit = [_unscaled(den, seg) for seg in sorted(members)]
        orbit_of.update((seg, len(orbits)) for seg in orbit)
        orbits.append(orbit)

    memo: dict[Vec3, tuple] = {}

    def germs(p: Vec3):
        rep = reduce_mod(p, G.T0)[0]
        if rep not in memo:
            memo[rep] = _germ_orbits(rep, G)
        return memo[rep]

    edges = []
    for oid, members in enumerate(orbits):
        edge_index, link = _edge_data(G, members[0], germs)
        edges.append(
            SingularEdge(
                segment=members[0], edge_index=edge_index, link=link, orbit_id=oid
            )
        )
    return _SingularData(
        G=G,
        axes=axes,
        vertices=verts,
        circles=circles,
        orbit_of=orbit_of,
        orbits=orbits,
        edges=tuple(edges),
    )


def singular_graph(G: SpaceGroup) -> list[SingularEdge]:
    """All singular segments modulo the lattice, grouped into group orbits."""
    data = _singular_data(G.name)
    out = []
    for rep in data.edges:
        for seg in data.orbits[rep.orbit_id]:
            out.append(
                SingularEdge(
                    segment=seg,
                    edge_index=rep.edge_index,
                    link=rep.link,
                    orbit_id=rep.orbit_id,
                )
            )
    return out


# ============================================================
# marked edges
# ============================================================

_MARKED_LINK = (2, 2, 2, 3)

_EXPECTED_MARKED = {
    "P432": 1,
    "F4_132": 1,
    "I4_132": 2,
    "I432": 2,
    "P4_232": 2,
    "P622": 1,
}



@lru_cache(maxsize=None)
def _frame_symmetries(frame) -> tuple[IntMat, ...]:
    """Integer matrices with entries in {-1, 0, 1} of determinant ±1 preserving the frame metric.

    Column j of such a matrix has squared length gram[j][j], so each column is
    drawn from the short vectors of that length; the full integer metric and
    determinant checks then run on the few surviving triples.  The result is
    in row-major lexicographic order.
    """
    gram = frame_gram_int(frame)
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


@lru_cache(maxsize=None)
def _normalizer_maps(name: str) -> tuple[tuple[IntMat, Vec3], ...]:
    """Affine maps x ↦ Sx + t normalizing the group, up to lattice translations.

    S runs over the integer isometries of the frame (improper ones included)
    that preserve T0.  Conjugating a rotation generator (R, τ) gives
    (SRS⁻¹, Sτ + (I − SRS⁻¹)t), which lies in G iff
    (SRS⁻¹ − I)t ≡ Sτ − τ' (mod T0) for the coset (SRS⁻¹, τ') of G.  Stacked
    over the generators in T0-coordinates, these congruences have full rank
    and their Smith form lists the finitely many t modulo T0.
    """
    G = make_group(name)
    T0 = G.T0
    gens = [
        (invariant_coords_matrix(g.rot, T0), coords_in(g.trans, T0))
        for g in G.generators
        if not is_pure_translation(g)
    ]
    coset_of = {invariant_coords_matrix(c.rot, T0): coords_in(c.trans, T0) for c in G.cosets}
    out = []
    for rows in _frame_symmetries(G.frame):
        # integral iff S·T0 ⊆ T0, which means S·T0 = T0 because det S = ±1
        s = coords_matrix(rows, T0)
        if s is None:
            continue
        s_inv = mat_inv(s)
        system: list[IntVec] = []
        rhs: list[Fraction] = []
        for rot, tau in gens:
            conj = matmul(matmul(s, rot), s_inv)
            target = coset_of.get(conj)
            if target is None:
                break
            system.extend(
                tuple(conj[i][j] - (1 if i == j else 0) for j in range(3)) for i in range(3)
            )
            rhs.extend(vsub(int_matvec(s, tau), target))
        else:
            points, kernel = solve_congruence(system, rhs)
            if kernel:
                raise ValueError("normalizer translations of a group are not discrete")
            out.extend((rows, reduce_mod(from_coords(y, T0), T0)[0]) for y in points)
    return tuple(sorted(set(out)))


def marked_edges(G: SpaceGroup) -> list[SingularEdge]:
    """One representative per orbit class whose neighborhood boundary is S²(2,2,2,3)."""
    data = _singular_data(G.name)
    qualifying = [e for e in data.edges if e.link == _MARKED_LINK]
    classes = _UnionFind(e.orbit_id for e in qualifying)
    for rows, t in _normalizer_maps(G.name):
        for e in qualifying:
            a, b = e.segment
            img = _canon_segment(G.T0, int_affine(rows, a, t), int_affine(rows, b, t))
            other = data.orbit_of.get(img)
            if other is None or other not in classes:
                raise ValueError("normalizer map does not preserve the marked edges")
            classes.union(e.orbit_id, other)
    reps = sorted(
        (data.edges[min(ids)] for ids in classes.groups()),
        key=lambda e: e.orbit_id,
    )
    if len(reps) != _EXPECTED_MARKED[G.name]:
        raise SignatureCountMismatch(
            f"{G.name}: found {len(reps)} marked edge classes, "
            f"expected {_EXPECTED_MARKED[G.name]}"
        )
    return reps


# ============================================================
# quotient graphs of edge orbits
# ============================================================


def edge_orbit_graph(G: SpaceGroup, e: SingularEdge, suppress: bool = True) -> PeriodicGraph:
    """Quotient graph of the full orbit of one singular edge, modulo the lattice."""
    data = _singular_data(G.name)
    key = _canon_segment(G.T0, e.segment[0], e.segment[1])
    oid = data.orbit_of.get(key)
    if oid is None:
        raise ValueError("edge does not belong to this group's singular graph")
    members = data.orbits[oid]
    cells: dict[Vec3, int] = {}
    reduced = []
    for a, b in members:
        pair = []
        for p in (a, b):
            c = coords_in(p, G.T0)
            k = tuple(math.floor(x) for x in c)
            frac = tuple(x - f for x, f in zip(c, k))
            pair.append((frac, k))
            cells.setdefault(frac, 0)
        reduced.append(pair)
    order = {v: i for i, v in enumerate(sorted(cells))}
    edges = []
    for (va, ka), (vb, kb) in reduced:
        shift = tuple(x - y for x, y in zip(kb, ka))
        edges.append(_normalize_edge(order[va], order[vb], shift))
    if len(set(edges)) != len(edges):
        raise ValueError("distinct straight segments produced a duplicate edge")
    g = PeriodicGraph(
        group=G.name,
        T0=G.T0,
        vertices=tuple(sorted(cells)),
        edges=tuple(edges),
    )
    return suppress_valence_two(g) if suppress else g


def suppress_valence_two(g: PeriodicGraph) -> PeriodicGraph:
    """Smooth out valence-2 vertices, concatenating their edge shifts."""
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
            i1, j1, s1 = j1, i1, vneg(s1)
        i2, j2, s2 = edges[p2]
        if i2 != target:
            i2, j2, s2 = j2, i2, vneg(s2)
        merged = _normalize_edge(
            i1, j2, tuple(int(x + y) for x, y in zip(s1, s2))
        )
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
# lifting criteria
# ============================================================


def cycle_image_lattice(g: PeriodicGraph) -> SubgroupHNF:
    """Lattice generated by the net shifts of the graph's fundamental cycles."""
    n = len(g.vertices)
    if n == 0:
        raise Disconnected("graph has no vertices")
    adjacency: dict[int, list[tuple[int, IntVec]]] = {i: [] for i in range(n)}
    for i, j, s in g.edges:
        adjacency[i].append((j, s))
        adjacency[j].append((i, (-s[0], -s[1], -s[2])))
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
    gens = []
    for i, j, s in g.edges:
        cyc = tuple(potential[i][k] + s[k] - potential[j][k] for k in range(3))
        gens.append(from_coords(cyc, g.T0))
    return hnf(gens)


def _check_sublattice(g: PeriodicGraph, T: SubgroupHNF) -> None:
    if T.rank != 3 or not is_subgroup(T, g.T0):
        raise NotASubgroup("lift lattice must be a finite-index subgroup of T0")


def lift_connected(g: PeriodicGraph, T: SubgroupHNF) -> bool:
    """True iff the graph's preimage in the T-quotient torus is connected."""
    _check_sublattice(g, T)
    return join(cycle_image_lattice(g), T) == g.T0


def lift_connected_bruteforce(g: PeriodicGraph, T: SubgroupHNF) -> bool:
    """Union-find connectivity of one vertex copy per coset of T in T0."""
    _check_sublattice(g, T)
    rel = relative_integer_basis(T, g.T0)
    labels = [
        (a, b, c)
        for a in range(rel[0][0])
        for b in range(rel[1][1])
        for c in range(rel[2][2])
    ]
    classes = _UnionFind((v, lab) for v in range(len(g.vertices)) for lab in labels)
    for i, j, s in g.edges:
        for lab in labels:
            shifted = reduce_mod_relative(
                (lab[0] + s[0], lab[1] + s[1], lab[2] + s[2]), rel
            )
            classes.union((i, lab), (j, shifted))
    return len(classes.groups()) == 1


def lift_genus(g: PeriodicGraph, T: SubgroupHNF) -> int:
    """Genus of the boundary of a regular neighborhood of the connected lift."""
    if not lift_connected(g, T):
        raise Disconnected("lift of the graph is not connected")
    k = index(T, g.T0)
    return (len(g.edges) - len(g.vertices)) * k + 1


# ============================================================
# optional geometry export
# ============================================================


def to_obj_lines(g: PeriodicGraph) -> list[str]:
    """Wavefront OBJ polyline description of one fundamental cell of the lift."""
    frame = make_group(g.group).frame
    hexagonal = frame.gram[0][1] != 0

    def xyz(c: Vec3) -> tuple[float, float, float]:
        u, v, w = from_coords(c, g.T0)
        if hexagonal:
            return (float(-u / 2 + v), float(u) * math.sqrt(3) / 2, float(w))
        return (float(u), float(v), float(w))

    lines = ["# periodic graph fundamental cell"]
    count = 0
    for i, j, s in g.edges:
        a = xyz(g.vertices[i])
        b = xyz(vadd(g.vertices[j], vec(*s)))
        lines.append("v %.6f %.6f %.6f" % a)
        lines.append("v %.6f %.6f %.6f" % b)
        count += 2
        lines.append("l %d %d" % (count - 1, count))
    return lines
