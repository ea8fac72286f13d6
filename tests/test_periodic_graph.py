"""Tests for singular-set extraction, marked edges, and lift criteria."""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, strategies as st

from torsym import periodic_graphs
from torsym.classify import CASES, _cases
from torsym.errors import Disconnected, InvariantViolation, NotASubgroup
from torsym.lattices import (
    TRIVIAL_SUBGROUP,
    _from_t0_hnfs,
    from_numerators,
    hnf,
    index,
    int_matvec,
    is_subgroup,
    matmul,
    member,
    primitive_integer,
    smith_form,
)
from torsym.periodic_graphs import (
    PeriodicGraph,
    SingularEdge,
    _axis_basis,
    _fixed_points,
    _germ_orbits,
    _image,
    _lattice_symmetries,
    _normalizer_solutions,
    _rotation_classes,
    _singular_data,
    cycle_image_lattice,
    edge_orbit_graph,
    lift_connected,
    lift_connected_bruteforce,
    lift_genus,
    marked_edges,
    singular_graph,
    suppress_valence_two,
)
from torsym.spacegroups import (
    CUBIC_FRAME,
    HEX_FRAME,
    Isometry,
    SpaceGroup,
    _closure,
    fixing_cosets,
    make_group,
    stabilizer,
    stabilizer_order,
)
from torsym.sublattices import instantiate, normal_translation_subgroups

import oracles
from oracles import (
    Axis,
    _axis_base,
    _normalizer_maps,
    _UnionFind,
    _plane_lattice,
    apply,
    axis_classes,
    canon_segment,
    congruence_classes,
    coords_in,
    coords_matrix,
    coset_coords,
    fixed_axis,
    fixed_points_per_coset,
    from_coords,
    germ_orbits,
    int_affine,
    is_pure_translation,
    mat,
    mat_inv,
    matvec,
    reduce_mod,
    singular_axes,
    singular_circles,
    singular_vertices,
    vadd,
    vec,
    vertex_classes,
    vscale,
    vsub,
)

GROUPS = ["P432", "F4_132", "I4_132", "I432", "P4_232", "P622"]

T1 = instantiate("CUBIC_PRIMITIVE", 1)
T2 = instantiate("CUBIC_FACE", 1)
T4 = instantiate("CUBIC_BODY", 2)
T108 = instantiate("CUBIC_BODY", 6)
HEX_PLANE = hnf([(1, 0, 0), (0, 1, 0)])


# ============================================================
# graph and edge containers
# ============================================================


def test_periodic_graph_normalizes_edge_orientation():
    g = PeriodicGraph(
        group="P432",
        T0=T1,
        vertices=((0, 0, 0), (Fraction(1, 2), 0, 0)),
        edges=((1, 0, (1, 2, 3)),),
    )
    assert g.edges == ((0, 1, (-1, -2, -3)),)


def test_periodic_graph_normalizes_loop_shift_sign():
    g = PeriodicGraph(group="P432", T0=T1, vertices=((0, 0, 0),), edges=((0, 0, (-1, 0, 0)),))
    assert g.edges == ((0, 0, (1, 0, 0)),)


def test_periodic_graph_rejects_out_of_cell_vertex():
    with pytest.raises(ValueError):
        PeriodicGraph(group="P432", T0=T1, vertices=((1, 0, 0),), edges=())


def test_periodic_graph_rejects_a_vertex_that_is_not_a_3_vector():
    for v in [(0, 0), (0, 0, 0, 0)]:
        with pytest.raises(ValueError):
            PeriodicGraph(group="P432", T0=T1, vertices=(v,), edges=())


def test_periodic_graph_rejects_bad_edge_endpoint():
    with pytest.raises(ValueError):
        PeriodicGraph(group="P432", T0=T1, vertices=((0, 0, 0),), edges=((0, 1, (0, 0, 0)),))


def test_periodic_graph_rejects_non_integral_shifts():
    # int() would make (1/2, 0, 0) a zero-shift loop, which drops the cycle image's rank
    for s in [(Fraction(1, 2), 0, 0), (0, 1.7, 0), (1, 0)]:
        with pytest.raises(ValueError):
            PeriodicGraph(group="P432", T0=T1, vertices=((0, 0, 0),), edges=((0, 0, s),))
    g = PeriodicGraph(group="P432", T0=T1, vertices=((0, 0, 0),), edges=((0, 0, (Fraction(2), 1.0, 0)),))
    assert g.edges == ((0, 0, (2, 1, 0)),)
    assert all(type(x) is int for x in g.edges[0][2])


def test_periodic_graph_json_uses_rational_strings():
    g = PeriodicGraph(
        group="P432",
        T0=T1,
        vertices=((0, Fraction(1, 2), Fraction(3, 4)),),
        edges=((0, 0, (0, 0, 1)),),
    )
    data = g.to_json()
    assert data["group"] == "P432"
    assert data["vertices"] == [["0", "1/2", "3/4"]]
    assert data["edges"] == [[0, 0, [0, 0, 1]]]
    assert data["t0"] == T1.to_json()


def test_singular_edge_validation():
    with pytest.raises(ValueError):
        SingularEdge(segment=((0, 0, 0), (0, 0, 0)), edge_index=2, link=(2, 2, 2, 3), orbit_id=0)
    with pytest.raises(ValueError):
        SingularEdge(segment=((0, 0, 0), (1, 0, 0)), edge_index=1, link=(2, 2, 2, 3), orbit_id=0)
    with pytest.raises(ValueError):
        SingularEdge(segment=((0, 0, 0), (1, 0, 0)), edge_index=2, link=(2, 2, 3), orbit_id=0)
    e = SingularEdge(segment=((0, 0, 0), (1, 0, 0)), edge_index=2, link=(3, 2.0, Fraction(2), 2), orbit_id=0)
    assert e.link == (2, 2, 2, 3) and all(type(x) is int for x in e.link)
    assert e.to_json()["segment"] == [["0", "0", "0"], ["1", "0", "0"]]


@pytest.mark.parametrize(
    "segment",
    [((0, 0), (1, 0)), ((0, 0, 0, 0), (1, 0, 0, 0)), ((0, 0, 0), (1, 0)), ((0, 0, 0),), ((0, 0, 0), (1, 0, 0), (2, 0, 0))],
    ids=["2-vectors", "4-vectors", "mixed", "one-end", "three-ends"],
)
def test_singular_edge_rejects_endpoints_that_are_not_two_3_vectors(segment):
    with pytest.raises(ValueError):
        SingularEdge(segment=segment, edge_index=2, link=(2, 2, 2, 3), orbit_id=0)


@pytest.mark.parametrize("link", [(2, 2, 2, "3"), (2, 2, 2, 2.5), (2, 2, Fraction(5, 2), 3)], ids=["str", "float", "fraction"])
def test_singular_edge_rejects_a_non_integer_link_entry(link):
    # sorted() would raise TypeError on a str among ints, and keep 2.5 as a germ index
    with pytest.raises(ValueError):
        SingularEdge(segment=((0, 0, 0), (1, 0, 0)), edge_index=2, link=link, orbit_id=0)


@pytest.mark.parametrize("x", [None, [2]], ids=["none", "list"])
def test_a_link_entry_or_shift_that_is_no_number_raises_value_error(x):
    # int() raises TypeError on these, and as_int refuses them as it refuses every other non-integer
    with pytest.raises(ValueError, match="expected an integer"):
        SingularEdge(segment=((0, 0, 0), (1, 0, 0)), edge_index=2, link=(2, 2, 2, x), orbit_id=0)
    with pytest.raises(ValueError, match="expected an integer"):
        PeriodicGraph("P432", T1, ((0, 0, 0),), ((0, 0, (x, 0, 0)),))


_ROT_ID = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: PeriodicGraph("P432", T1, ((0, 0, 0),), ((0, 0, (x, 0, 0)),)),
        lambda x: PeriodicGraph("P432", T1, ((0, x, 0),), ()),
        lambda x: Isometry(CUBIC_FRAME, _ROT_ID, (0, 0, x)),
        lambda x: Isometry(CUBIC_FRAME, ((x, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0)),
        lambda x: SingularEdge(segment=((0, 0, 0), (x, 0, 0)), edge_index=2, link=(2, 2, 2, 3), orbit_id=0),
        lambda x: stabilizer((x, 0, 0), make_group("P432")),
    ],
    ids=["graph-shift", "graph-vertex", "isometry-translation", "isometry-rotation", "singular-edge", "stabilizer"],
)
def test_a_coordinate_with_no_exact_value_raises_value_error(build, x):
    # Fraction and int raise OverflowError on an infinity and ValueError on NaN; both are malformed input
    with pytest.raises(ValueError):
        build(x)


# ============================================================
# axes and vertices
# ============================================================

EXPECTED_SHAPE = {
    # group: (axis classes, vertex classes, segments, orbits)
    "P432": (28, 8, 56, 6),
    "F4_132": (22, 12, 60, 6),
    "I4_132": (22, 20, 68, 6),
    "I432": (22, 14, 62, 6),
    "P4_232": (28, 28, 100, 9),
    "P622": (18, 12, 48, 9),
}


def rational_orbit_of(G):
    """The orbit_of of G's singular data keyed by rational frame segments, the form the Fraction oracles produce."""
    data = _singular_data(G)
    return {
        tuple(from_numerators(p, data.den, G.T0) for p in seg): oid
        for seg, oid in data.orbit_of.items()
    }


@pytest.mark.parametrize("name", GROUPS)
def test_singular_set_shape(name):
    G = make_group(name)
    data = _singular_data(G)
    n_axes, n_verts, n_segs, n_orbits = EXPECTED_SHAPE[name]
    assert len(singular_axes(G)) == n_axes
    assert len(singular_vertices(G)) == n_verts
    assert len(data.orbit_of) == n_segs
    assert len(data.orbits) == n_orbits
    assert singular_circles(G) == []


# ------------------------------------------------------------
# one solve per class of half-turn pairs, carried by the cosets, and the axes
# read off the vertex stabilizers, against one solve per coset with a
# stabilizer scan per axis class (oracles.fixed_points_per_coset)
# ------------------------------------------------------------

_ROT_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def segment_lines(data):
    """The edge index of each axis class (e, c₁, c₂) that carries a segment, keyed as `_axis_segments` keys it."""
    den = data.den
    out = {}
    for (a, b), oid in data.orbit_of.items():
        e = primitive_integer(tuple(y - x for x, y in zip(a, b)))
        _, c1, c2 = int_matvec(_axis_basis(e)[0], a)
        # every segment of one axis has the axis's index
        assert out.setdefault((e, c1 % den, c2 % den), data.edges[oid].edge_index) == data.edges[oid].edge_index
    return out


@pytest.mark.parametrize("name", GROUPS)
def test_coset_coords_match_the_fraction_route(name):
    assert make_group(name).maps == coset_coords(make_group(name))


@pytest.mark.parametrize("name", GROUPS)
def test_axis_and_vertex_classes_match_one_solve_per_coset(name):
    # the segments lie on exactly the solved axis classes, each with the axis's rotation index as its edge index
    data = _singular_data(make_group(name))
    lines, corners = fixed_points_per_coset(make_group(name))
    assert all(data.den % top == 0 for top in [t for *_, t in lines] + [t for _, t in corners])
    assert segment_lines(data) == {ax[:3]: ax[3] for ax in axis_classes(data, lines)}
    assert data.vertex_classes == vertex_classes(data.den, corners)


@pytest.mark.parametrize("name", GROUPS)
def test_germ_orbits_match_the_union_find_at_every_vertex(name):
    data = _singular_data(make_group(name))
    for v in data.vertex_classes:
        rots = tuple(data.moves[k][0] for k in fixing_cosets(data.moves, data.den, v) if data.moves[k][0] != _ROT_IDENTITY)
        assert len(_germ_orbits(rots)) == 3
        assert _germ_orbits(rots) == germ_orbits(rots)


@pytest.mark.parametrize("name", GROUPS)
def test_fixed_points_solve_one_congruence_per_class(name, monkeypatch):
    # 5 classes of half-turn pairs for a cubic group, 6 for P622
    calls = []
    solve = periodic_graphs.solve_congruence
    monkeypatch.setattr(periodic_graphs, "solve_congruence", lambda *a: calls.append(a) or solve(*a))
    _fixed_points(make_group(name))
    assert len(calls) == (6 if name == "P622" else 5)


@pytest.mark.parametrize("name", GROUPS)
def test_every_solved_system_has_the_block_scan_solution_set(name, monkeypatch):
    # the fixed points and the normalizer translations, solved afresh, against the oracle route
    calls = []
    solve = periodic_graphs.solve_congruence
    monkeypatch.setattr(periodic_graphs, "solve_congruence", lambda *a: calls.append(a) or solve(*a))
    G = make_group(name)
    _fixed_points(G)
    _normalizer_solutions(G)
    # five or six half-turn pair classes and at least one normalizer system
    assert len(calls) >= 6
    for m, nums, den in calls:
        points, top, kernel = solve(m, nums, den)
        want, want_top, want_kernel = oracles.solve_congruence_by_block_scan(m, nums, den)
        assert (top, len(points), len(kernel)) == (want_top, len(want), len(want_kernel))
        for k in kernel:
            assert all(sum(a * b for a, b in zip(row, k)) == 0 for row in m)
        # the kernels span one saturated lattice, so the oracle's names the classes of both
        assert congruence_classes(points, top, want_kernel) == congruence_classes(want, top, want_kernel)
        assert len(congruence_classes(points, top, want_kernel)) == len(points)
    # the columns of `_axis_basis`: U·e = ±e₁, with the oracle's one invariant
    for e in {e for e, *_ in segment_lines(_singular_data(G))}:
        assert smith_form([[x] for x in e])[1] == oracles.smith_form_by_block_scan([[x] for x in e])[1] == [1]
        assert int_matvec(_axis_basis(e)[0], e) in ((1, 0, 0), (-1, 0, 0))


@pytest.mark.parametrize("name", GROUPS)
def test_axis_and_vertex_classes_are_closed_under_every_coset(name):
    data = _singular_data(make_group(name))
    den = data.den
    verts = set(data.vertex_classes)
    index = segment_lines(data)
    for a, t in data.moves:
        for v in verts:
            assert tuple((x + s) % den for x, s in zip(int_matvec(a, v), t)) in verts
        for (e, c1, c2), idx in index.items():
            p = vadd(int_matvec(a, int_matvec(_axis_basis(e)[1], (0, c1, c2))), t)
            d = primitive_integer(int_matvec(a, e))
            _, k1, k2 = int_matvec(_axis_basis(d)[0], p)
            assert index[(d, k1 % den, k2 % den)] == idx


# ------------------------------------------------------------
# window and grid oracle: an enumeration independent of the Smith-form
# solves.  It scans lattice translates in a cube of the given radius, tests
# each with one integer condition, and solves the normalizer translations
# on a (1/24)-grid of lattice coordinates.
# ------------------------------------------------------------


@lru_cache(maxsize=None)
def _window(T0, radius):
    rng = range(-radius, radius + 1)
    return tuple(from_coords((a, b, c), T0) for a in rng for b in rng for c in rng)


def _times(den, p):
    return (int(p[0] * den), int(p[1] * den), int(p[2] * den))


@lru_cache(maxsize=None)
def _window_times(T0, radius, den):
    return tuple(_times(den, w) for w in _window(T0, radius))


def _common_den(T0, points):
    return math.lcm(T0.den, *(x.denominator for p in points for x in p))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _axis_class(T0, point, d):
    """Canonical (direction, base) of the line through a rational point along d, modulo the lattice."""
    i0, dd, _ = _plane_lattice(T0, d)
    den = math.lcm(dd, *(Fraction(x).denominator for x in point)) * d[i0]
    base = _axis_base(T0, [int(x * den) for x in point], den, d)
    return d, tuple(Fraction(x, den) for x in base)


def _axis_period(T0, d):
    """Smallest s > 0 with s·d in the lattice, for a primitive direction d."""
    c = coords_in(vec(*d), T0)
    lcm = math.lcm(*(x.denominator for x in c))
    g = math.gcd(*(int(x * lcm) for x in c))
    return Fraction(lcm, g)


def _window_axis_order(G, base, d):
    return sum(
        1
        for c in G.cosets
        if tuple(sum(c.rot[i][j] * d[j] for j in range(3)) for i in range(3)) == d
        and member(vsub(base, apply(c, base)), G.T0)
    )


def window_axes(G, radius):
    """x ↦ R·x + t + w has a fixed line iff k·(t + w) = 0 for the normal k of the image of R − I."""
    den = _common_den(G.T0, [c.trans for c in G.cosets])
    found = {}
    for c in G.cosets:
        if is_pure_translation(c):
            continue
        cols = [tuple(c.rot[i][j] - (i == j) for i in range(3)) for j in range(3)]
        k = next(
            n
            for n in (_cross(cols[0], cols[1]), _cross(cols[0], cols[2]), _cross(cols[1], cols[2]))
            if any(n)
        )
        kt = _dot(k, _times(den, c.trans))
        for w, sw in zip(_window(G.T0, radius), _window_times(G.T0, radius, den)):
            if kt + _dot(k, sw):
                continue
            ax = fixed_axis(Isometry(G.frame, c.rot, vadd(c.trans, w)))
            if ax is not None:
                key = _axis_class(G.T0, ax.base, ax.direction)
                found.setdefault(key, _window_axis_order(G, key[1], key[0]))
    return [Axis(base=b, direction=d, order=found[(d, b)]) for d, b in sorted(found)]


def window_vertices(G, axes, radius):
    """Pairwise intersections of axis translates, which must be coplanar to meet."""
    den = _common_den(G.T0, [ax.base for ax in axes])
    pts = set()
    for k, ax1 in enumerate(axes):
        for ax2 in axes[k + 1 :]:
            d1, d2 = ax1.direction, ax2.direction
            if d1 == d2:
                continue
            normal = _cross(d1, d2)
            offset = _dot(normal, _times(den, vsub(ax2.base, ax1.base)))
            r, q = next(
                (r, q) for r, q in ((0, 1), (0, 2), (1, 2)) if d2[r] * d1[q] - d1[r] * d2[q]
            )
            det2, spare = d2[r] * d1[q] - d1[r] * d2[q], 3 - r - q
            for w, sw in zip(_window(G.T0, radius), _window_times(G.T0, radius, den)):
                if offset + _dot(normal, sw):
                    continue
                rhs = vsub(vadd(ax2.base, w), ax1.base)
                s = (d2[r] * rhs[q] - d2[q] * rhs[r]) / det2
                u = (d1[r] * rhs[q] - d1[q] * rhs[r]) / det2
                if s * d1[spare] - u * d2[spare] == rhs[spare]:
                    pts.add(reduce_mod(vadd(ax1.base, vscale(s, vec(*d1))), G.T0)[0])
    return sorted(pts)


def window_offsets(G, ax, verts, radius):
    """Offsets mod the axis period of the vertex translates v + w lying on the axis."""
    d = ax.direction
    i0 = next(i for i in range(3) if d[i])
    s0 = _axis_period(G.T0, d)
    den = _common_den(G.T0, [ax.base, *verts])
    offs = set()
    for v in verts:
        rel0 = vsub(v, ax.base)
        a = _times(den, rel0)
        for w, sw in zip(_window(G.T0, radius), _window_times(G.T0, radius, den)):
            if not any(_cross((a[0] + sw[0], a[1] + sw[1], a[2] + sw[2]), d)):
                offs.add((vadd(rel0, w)[i0] / d[i0]) % s0)
    return sorted(offs)


@lru_cache(maxsize=None)
def grid_normalizer_maps(name, grid=24):
    """The congruences (SRS⁻¹ − I)t ≡ Sτ − τ' (mod T0), filtered over a (1/grid)-grid.

    S runs over every frame symmetry, so this lists the whole normalizer modulo T0.
    """
    import numpy as np

    G = make_group(name)
    gens = [g for g in G.generators if not is_pure_translation(g)]
    coset_of = {c.rot: c for c in G.cosets}
    points = np.array([(a, b, c) for a in range(grid) for b in range(grid) for c in range(grid)])
    out = []
    for rows in _lattice_symmetries(G.frame.gram):
        if hnf([int_affine(rows, v) for v in G.T0.vectors()]) != G.T0:
            continue
        s_inv = tuple(tuple(int(e) for e in row) for row in mat_inv(mat(rows)))
        cand = points
        for g in gens:
            rot = matmul(matmul(rows, g.rot), s_inv)
            target = coset_of.get(rot)
            if target is None:
                cand = cand[:0]
                break
            w = [grid * x for x in coords_in(vsub(target.trans, int_affine(rows, g.trans)), G.T0)]
            if any(x.denominator != 1 for x in w):
                cand = cand[:0]
                break
            delta = tuple(tuple(rot[i][j] - (i == j) for j in range(3)) for i in range(3))
            m = np.array(coords_matrix(delta, G.T0))
            cand = cand[((cand @ m.T + np.array([int(x) for x in w])) % grid == 0).all(axis=1)]
        for u in cand:
            t = from_coords(tuple(Fraction(int(x), grid) for x in u), G.T0)
            out.append((rows, reduce_mod(t, G.T0)[0]))
    return tuple(sorted(set(out)))


def group_closure(G, maps):
    """All (R·S, R·t + τ) modulo T0 for the maps (S, t) and the cosets (R, τ) of G."""
    return tuple(
        sorted(
            {
                (matmul(c.rot, rows), reduce_mod(int_affine(c.rot, t, c.trans), G.T0)[0])
                for rows, t in maps
                for c in G.cosets
            }
        )
    )


@pytest.mark.parametrize("name", GROUPS)
def test_axis_window_saturates(name):
    # the exact solve finds every axis class, and the windows find no other
    G = make_group(name)
    # the oracle's canonical base of each axis, which the package need not use
    found = {_axis_class(G.T0, a.base, a.direction): a.order for a in singular_axes(G)}
    axes = [Axis(base=b, direction=d, order=found[(d, b)]) for d, b in sorted(found)]
    for radius in (2, 3):
        assert window_axes(G, radius) == axes


@pytest.mark.parametrize("name", GROUPS)
def test_vertex_window_saturates(name):
    G = make_group(name)
    for radius in (2, 3):
        assert window_vertices(G, singular_axes(G), radius) == singular_vertices(G)


@pytest.mark.parametrize("name", GROUPS)
def test_axis_segments_match_window_oracle(name):
    # cut every axis at the window's vertex offsets over one period; the
    # pieces are exactly the singular segments, up to lattice translation
    G = make_group(name)
    found = set()
    for ax in singular_axes(G):
        offs = window_offsets(G, ax, singular_vertices(G), 2)
        assert offs, "every axis meets a vertex"
        offs.append(offs[0] + _axis_period(G.T0, ax.direction))
        dv = vec(*ax.direction)
        for a, b in zip(offs, offs[1:]):
            found.add(canon_segment(G.T0, vadd(ax.base, vscale(a, dv)), vadd(ax.base, vscale(b, dv))))
    assert found == set(rational_orbit_of(G))


@pytest.mark.parametrize("name", GROUPS)
def test_normalizer_maps_match_grid_oracle(name):
    # the maps are a transversal of G in its normalizer: one per coset of G
    G = make_group(name)
    maps, oracle = _normalizer_maps(G), grid_normalizer_maps(name)
    assert group_closure(G, maps) == oracle
    assert len(maps) * G.point_order == len(oracle)


@pytest.mark.parametrize("name", GROUPS)
def test_marked_edges_match_the_whole_grid_normalizer(name):
    # the full oracle map set is a group modulo T0, so the class of an orbit
    # is the set of its images: no union-find and no transversal needed
    G = make_group(name)
    data = _singular_data(G)
    orbit_of = rational_orbit_of(G)
    classes = set()
    for e in data.edges:
        if e.link != (2, 2, 2, 3):
            continue
        a, b = e.segment
        classes.add(
            frozenset(
                orbit_of[canon_segment(G.T0, int_affine(rows, a, t), int_affine(rows, b, t))]
                for rows, t in grid_normalizer_maps(name)
            )
        )
    assert [e.orbit_id for e in marked_edges(G)] == sorted(min(c) for c in classes)


@pytest.mark.parametrize("name", GROUPS)
def test_normalizer_transversal_is_closed_modulo_g(name):
    # marked_edges sweeps each class once from its least orbit id, which needs the identity among
    # the maps and every composite of two maps to be a listed map up to an element of G and of T0
    G = make_group(name)
    cosets, cden = G.maps
    data = _singular_data(G)
    for raw in (_normalizer_solutions(G), [(a, t, data.den) for a, t in data.normalizer]):
        maps = [(a, tuple(Fraction(x, d) for x in t)) for a, t, d in raw]

        def cls(a, t):
            return a, tuple(x % 1 for x in t)

        listed = {
            cls(matmul(r, a), vadd(matvec(r, t), tuple(Fraction(x, cden) for x in tau)))
            for a, t in maps
            for r, tau in cosets
        }
        assert cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0)) in {cls(a, t) for a, t in maps}
        for a1, t1 in maps:
            for a2, t2 in maps:
                assert cls(matmul(a1, a2), vadd(matvec(a1, t2), t1)) in listed


@pytest.mark.parametrize("name", GROUPS)
def test_marked_edges_match_union_find_classes(name):
    # the union over every normalizer map and every marked orbit, with the least id of each class
    data = _singular_data(make_group(name))
    marked = [e.orbit_id for e in data.edges if e.link == (2, 2, 2, 3)]
    classes = _UnionFind(marked)
    for move in data.normalizer:
        for oid in marked:
            other = data.orbit_of[_image(data.den, move, data.orbits[oid][0])]
            assert other in classes
            classes.union(oid, other)
    expected = sorted(min(ids) for ids in classes.groups())
    assert [e.orbit_id for e in marked_edges(make_group(name))] == expected


def test_axis_orders_are_crystallographic():
    for name in GROUPS:
        orders = {a.order for a in singular_axes(make_group(name))}
        assert orders <= {2, 3, 4, 6}
        if name == "P622":
            assert 6 in orders
        else:
            assert orders <= {2, 3, 4}


def test_p432_axes_pass_through_quarter_rational_points():
    G = make_group("P432")
    for ax in singular_axes(G):
        assert all((4 * x).denominator == 1 for x in ax.base)
    for v in singular_vertices(G):
        assert all((4 * x).denominator == 1 for x in v)


def test_p432_vertex_stabilizer_orders():
    G = make_group("P432")
    orders = sorted(stabilizer_order(v, G) for v in singular_vertices(G))
    assert orders == [8, 8, 8, 8, 8, 8, 24, 24]


@pytest.mark.parametrize("name", GROUPS)
def test_every_vertex_is_trivalent(name):
    G = make_group(name)
    for v in singular_vertices(G):
        rots = tuple(g.rot for g in stabilizer(v, G) if not is_pure_translation(g))
        assert len(_germ_orbits(rots)) == 3


# ============================================================
# singular graph segments
# ============================================================

EXPECTED_ORBITS = {
    # multiset of (edge_index, link, orbit size)
    "P432": {
        (3, (2, 2, 4, 4), 8): 1,
        (2, (2, 3, 4, 4), 12): 2,
        (4, (2, 2, 2, 3), 6): 2,
        (2, (2, 2, 4, 4), 12): 1,
    },
    "F4_132": {
        (2, (3, 3, 3, 3), 12): 1,
        (3, (2, 2, 3, 3), 8): 1,
        (3, (2, 2, 2, 3), 8): 2,
        (2, (2, 2, 3, 3), 12): 2,
    },
    "I4_132": {
        (2, (2, 2, 2, 3), 12): 4,
        (2, (2, 2, 2, 2), 12): 1,
        (3, (2, 2, 2, 2), 8): 1,
    },
    "I432": {
        (2, (2, 3, 4, 4), 12): 1,
        (4, (2, 2, 2, 3), 6): 1,
        (3, (2, 2, 2, 4), 8): 1,
        (2, (2, 2, 2, 4), 12): 1,
        (2, (2, 2, 2, 3), 12): 2,
    },
    "P4_232": {
        (2, (2, 2, 3, 3), 12): 1,
        (3, (2, 2, 2, 3), 8): 2,
        (2, (2, 2, 2, 2), 12): 2,
        (2, (2, 2, 2, 3), 12): 4,
    },
    "P622": {
        (2, (2, 2, 3, 6), 6): 2,
        (2, (2, 2, 2, 6), 6): 2,
        (6, (2, 2, 2, 2), 2): 1,
        (2, (2, 2, 2, 3), 6): 2,
        (2, (2, 2, 2, 2), 6): 1,
        (3, (2, 2, 2, 2), 4): 1,
    },
}


@pytest.mark.parametrize("name", GROUPS)
def test_orbit_inventory(name):
    data = _singular_data(make_group(name))
    found: dict = {}
    for e in data.edges:
        key = (e.edge_index, e.link, len(data.orbits[e.orbit_id]))
        found[key] = found.get(key, 0) + 1
    assert found == EXPECTED_ORBITS[name]


@pytest.mark.parametrize("name", GROUPS)
def test_singular_graph_lists_every_segment_once(name):
    G = make_group(name)
    edges = singular_graph(G)
    assert len(edges) == EXPECTED_SHAPE[name][2]
    assert len({e.segment for e in edges}) == len(edges)
    for e in edges:
        rep = _singular_data(G).edges[e.orbit_id]
        assert (e.edge_index, e.link) == (rep.edge_index, rep.link)


def test_i4_132_face_diagonal_segment_lies_in_the_deep_lattice_class():
    # the two-fold axis x + y = 1/2, z = 1/4 carries a singular segment from
    # (1/4, 1/4, 1/4) to (1, -1/2, 1/4); it exits the cell [0,1]^3 one third of
    # the way along, at (1/2, 0, 1/4), and its marked class has cycle image T108
    G = make_group("I4_132")
    a = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
    b = (Fraction(1), Fraction(-1, 2), Fraction(1, 4))
    exit_point = vadd(a, vscale(Fraction(1, 3), vsub(b, a)))
    assert exit_point == (Fraction(1, 2), Fraction(0), Fraction(1, 4))
    data = _singular_data(G)
    orbit_of = rational_orbit_of(G)
    seg = canon_segment(G.T0, a, b)
    assert seg in orbit_of
    e = data.edges[orbit_of[seg]]
    assert e.link == (2, 2, 2, 3)
    assert cycle_image_lattice(edge_orbit_graph(G, e)) == T108


@pytest.mark.parametrize("name", GROUPS)
def test_interior_point_stabilizer_equals_edge_index(name):
    G = make_group(name)
    for e in _singular_data(G).edges:
        a, b = e.segment
        for t in (Fraction(1, 3), Fraction(3, 7)):
            p = vadd(a, vscale(t, vsub(b, a)))
            assert oracles.stabilizer_order(p, G) == e.edge_index


@pytest.mark.parametrize("name", GROUPS)
def test_stabilizers_match_the_fraction_oracle_on_the_singular_set(name):
    # the public stabilizers scan the integer coset maps; the oracle applies each Fraction coset
    G = make_group(name)
    points = [*singular_vertices(G), *(ax.base for ax in singular_axes(G))]
    points += [tuple((x + y) / 2 for x, y in zip(*e.segment)) for e in singular_graph(G)]
    for p in points:
        assert stabilizer(p, G) == oracles.stabilizer(p, G)
        assert stabilizer_order(p, G) == oracles.stabilizer_order(p, G)


_rational = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@given(
    st.sampled_from(GROUPS),
    st.tuples(_rational, _rational, _rational),
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
)
def test_stabilizers_match_the_fraction_oracle_at_rational_points(name, p, k, on_axis):
    # a point drawn on a rotation axis has a nontrivial stabilizer, a free point mostly not
    G = make_group(name)
    if on_axis:
        axes = singular_axes(G)
        ax = axes[k % len(axes)]
        p = vadd(ax.base, vscale(p[0], vec(*ax.direction)))
    assert stabilizer(p, G) == oracles.stabilizer(p, G)
    assert stabilizer_order(p, G) == oracles.stabilizer_order(p, G)


@pytest.mark.parametrize("name", GROUPS)
def test_endpoint_stabilizer_exceeds_edge_index(name):
    G = make_group(name)
    for e in _singular_data(G).edges:
        for p in e.segment:
            assert stabilizer_order(p, G) > e.edge_index


# ============================================================
# marked edges
# ============================================================

EXPECTED_MARKED_COUNTS = {
    "P432": 1,
    "F4_132": 1,
    "I4_132": 2,
    "I432": 2,
    "P4_232": 2,
    "P622": 1,
}


def test_marked_edge_counts_total_nine():
    found = {name: len(marked_edges(make_group(name))) for name in GROUPS}
    assert found == EXPECTED_MARKED_COUNTS
    assert sum(found.values()) == 9


def test_marked_edges_all_have_the_link_signature():
    for name in GROUPS:
        for e in marked_edges(make_group(name)):
            assert e.link == (2, 2, 2, 3)


def test_p432_marked_edge_has_index_four():
    (e,) = marked_edges(make_group("P432"))
    assert e.edge_index == 4


def test_the_marked_link_and_the_order_per_genus_are_derived_from_the_euler_characteristic():
    # 12·χ of S²(a₁, …, a₄): (2, 2, 2, 3) alone reaches −2 (χ = −1/6), so 2/(−χ) = 12; the next links give 8 and 6
    assert [periodic_graphs._link_euler12(a) for a in ((2, 2, 2, 2), (2, 2, 2, 3), (2, 2, 2, 4), (2, 2, 3, 3), (3, 3, 3, 3))] == [0, -2, -3, -4, -8]
    assert periodic_graphs._marked_link() == ((2, 2, 2, 3), 12)
    assert (periodic_graphs._MARKED_LINK, periodic_graphs._ORDER_PER_GENUS) == ((2, 2, 2, 3), 12)


def test_a_tie_for_the_marked_link_raises(monkeypatch):
    # two links at the same negative χ would leave the marked edges undecided
    monkeypatch.setattr(periodic_graphs, "_link_euler12", lambda link: -2 if link in ((2, 2, 2, 3), (2, 2, 2, 4)) else 0)
    with pytest.raises(InvariantViolation, match="no one marked link"):
        periodic_graphs._marked_link()


def test_riemann_hurwitz_holds_on_every_connected_edge_orbit():
    # G/T0 acts on the boundary of a neighbourhood of the orbit graph in T³/T0, of genus 1 + E − V, with the
    # link's orbifold as quotient, so 2 − 2g = |P|·χ: 24·(E − V) = −|P|·12χ.  It ties the link, read off the
    # germ orbits at the vertices, to the orbit graph, from the coset sweep.  An orbit graph that is not
    # connected modulo T0 bounds no one surface there
    holds, disconnected = [], []
    for name in GROUPS:
        G = make_group(name)
        for e in _singular_data(G).edges:
            g = edge_orbit_graph(G, e)
            try:
                cycle_image_lattice(g)
            except Disconnected:
                disconnected.append((name, e.orbit_id))
                continue
            assert 24 * (len(g.edges) - len(g.vertices)) == -G.point_order * periodic_graphs._link_euler12(e.link), (name, e.orbit_id)
            holds.append((name, e.orbit_id))
    assert (len(holds), len(disconnected)) == (33, 9)


def test_riemann_hurwitz_holds_on_every_connected_lift():
    # G/T, of order |P|·[T0 : T], acts on the boundary of a neighbourhood of the connected lift in T³/T, of
    # genus lift_genus, with the link's orbifold as quotient: 24·(g − 1) = −|P|·[T0 : T]·12χ.  Every invariant T
    # to index 64 with a connected lift, on each of the 33 connected edge orbits
    lifts = {}
    for name in GROUPS:
        G = make_group(name)
        lattices = [T for T, _, _ in normal_translation_subgroups(G, 64)]
        for e in _singular_data(G).edges:
            g = edge_orbit_graph(G, e)
            try:
                cycle_image_lattice(g)
            except Disconnected:
                continue
            euler12 = periodic_graphs._link_euler12(e.link)
            lifts[name, e.orbit_id] = [T for T in lattices if lift_connected(g, T)]
            for T in lifts[name, e.orbit_id]:
                assert 24 * (lift_genus(g, T) - 1) == -G.point_order * index(T, G.T0) * euler12, (name, e.orbit_id, T)
    assert len(lifts) == 33 and all(lifts.values())
    assert sum(map(len, lifts.values())) == 288


# ============================================================
# the pipeline reads the record it is given, not its name
# ============================================================


def _shape(G):
    """Segment count, (edge index, link) multiset, marked-class count and the sorted marked [T0 : I], a rank-2 I as ∞."""
    segments = singular_graph(G)
    marked = marked_edges(G)
    images = [cycle_image_lattice(edge_orbit_graph(G, e)) for e in marked]
    images = sorted(index(I, G.T0) if I.rank == 3 else math.inf for I in images)
    return len(segments), Counter((e.edge_index, e.link) for e in segments), len(marked), images


def _canon_segments(G, c=(0, 0, 0)):
    """The singular segments of G moved by c, each as its canonical translate modulo T0."""
    return {canon_segment(G.T0, *(vadd(p, c) for p in e.segment)) for e in singular_graph(G)}


@pytest.mark.parametrize(
    "c", [(Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)), (Fraction(1, 3), 0, Fraction(1, 2))], ids=["eighths", "thirds"]
)
@pytest.mark.parametrize("name", GROUPS)
def test_an_origin_shift_moves_the_singular_set_and_keeps_its_invariants(name, c):
    # conjugating by x ↦ x + c sends (R, t) to (R, t + c − R·c), the same action up to conjugation
    G = make_group(name)
    gens = tuple(Isometry(G.frame, g.rot, vsub(vadd(g.trans, c), matvec(mat(g.rot), c))) for g in G.generators)
    cosets, T0, maps = _closure(gens)
    H = SpaceGroup(name, G.frame, gens, T0, len(cosets), tuple(cosets), maps)
    assert H.T0 == G.T0 and H.point_order == G.point_order
    assert _canon_segments(H) == _canon_segments(G, c)
    assert _shape(H) == _shape(G)


def test_a_renamed_record_keeps_its_own_singular_set():
    # I432's record under the name P432 has I432's 62 segments and marked orbits 1 and 4, not P432's 56 and 2
    G = make_group("I432")._replace(name="P432")
    assert len(singular_graph(G)) == 62
    assert [e.orbit_id for e in marked_edges(G)] == [1, 4]
    assert _shape(G) == _shape(make_group("I432"))
    assert len(singular_graph(make_group("P432"))) == 56
    assert [e.orbit_id for e in marked_edges(make_group("P432"))] == [2]


def test_a_record_whose_axes_carry_no_vertex_has_an_empty_singular_graph():
    # P2₁3: its half-turns are all 2₁ screws, so its 3-fold axes meet no vertex
    # and close up into singular circles, which carry no edge
    h = Fraction(1, 2)
    gens = [Isometry(CUBIC_FRAME, _ROT_IDENTITY, v) for v in _ROT_IDENTITY]
    gens += [
        Isometry(CUBIC_FRAME, ((-1, 0, 0), (0, -1, 0), (0, 0, 1)), (h, 0, h)),
        Isometry(CUBIC_FRAME, ((-1, 0, 0), (0, 1, 0), (0, 0, -1)), (0, h, h)),
        Isometry(CUBIC_FRAME, ((0, 0, 1), (1, 0, 0), (0, 1, 0)), (0, 0, 0)),
    ]
    cosets, T0, maps = _closure(gens)
    G = SpaceGroup("P2_13", CUBIC_FRAME, tuple(gens), T0, len(cosets), tuple(cosets), maps)
    assert G.point_order == 12
    assert _singular_data(G).vertex_classes == []
    assert singular_graph(G) == []
    assert marked_edges(G) == []
    assert singular_circles(G) == singular_axes(G)
    assert sorted(a.order for a in singular_axes(G)) == [3, 3, 3, 3]


def _basis_changes():
    a = ((2, 1, 0), (1, 1, 0), (0, 0, 1))
    return [(CUBIC_FRAME, a), (CUBIC_FRAME, ((1, 1, 0), (0, 1, 0), (0, 0, 1))), (HEX_FRAME, a)]


@pytest.mark.parametrize("frame, a", _basis_changes(), ids=["cubic-a", "cubic-shear", "hex-a"])
def test_frame_symmetries_follow_a_unimodular_change_of_basis(frame, a):
    # in the basis A the metric is AᵀGA and each symmetry S becomes A⁻¹SA, whose entries can exceed 1
    a_inv = tuple(tuple(int(x) for x in row) for row in mat_inv(mat(a)))
    gram = matmul(matmul(tuple(zip(*a)), frame.gram), a)
    want = tuple(sorted(matmul(matmul(a_inv, s), a) for s in _lattice_symmetries(frame.gram)))
    assert _lattice_symmetries(gram) == want


@pytest.mark.parametrize(
    "frame, h",
    [(make_group(name).frame, tuple(zip(*make_group(name).T0.basis))) for name in GROUPS] + _basis_changes(),
    ids=GROUPS + ["cubic-a", "cubic-shear", "hex-a"],
)
def test_lattice_symmetries_are_the_frame_symmetries_written_in_the_basis(frame, h):
    # the normalizer's linear parts in T0-coordinates: the symmetries of T0's own Gram matrix HᵀGH
    # are the frame symmetries S with H⁻¹SH integral, written as H⁻¹SH
    gram = matmul(matmul(tuple(zip(*h)), frame.gram), h)
    assert _lattice_symmetries(gram) == oracles.lattice_symmetries_by_conversion(frame, h)


def test_frame_symmetry_counts():
    assert len(_lattice_symmetries(CUBIC_FRAME.gram)) == 48
    assert len(_lattice_symmetries(HEX_FRAME.gram)) == 24
    # the Gram-entry pruning drops no triple that passes the determinant and metric checks
    for frame in (CUBIC_FRAME, HEX_FRAME):
        assert _lattice_symmetries(frame.gram) == oracles.frame_symmetries(frame)


def test_normalizer_contains_expected_translation_classes():
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    expected = {
        "P432": [(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))],
        "F4_132": [(Fraction(0), Fraction(0), Fraction(1))],
        "I4_132": [],
        "I432": [],
        "P4_232": [(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))],
        "P622": [(Fraction(0), Fraction(0), Fraction(1, 2))],
    }
    for name in GROUPS:
        classes = sorted(
            t for rows, t in _normalizer_maps(make_group(name)) if rows == identity and any(t)
        )
        assert classes == expected[name], name


def test_normalizer_maps_preserve_the_lattice_and_form_a_set():
    for name in GROUPS:
        G = make_group(name)
        maps = _normalizer_maps(G)
        assert maps == tuple(sorted(set(maps)))
        for rows, t in maps:
            imgs = [
                tuple(sum(rows[i][j] * v[j] for j in range(3)) for i in range(3))
                for v in G.T0.vectors()
            ]
            assert hnf(imgs) == G.T0
            assert member(vsub(t, reduce_mod(t, G.T0)[0]), G.T0)


# ============================================================
# edge orbit graphs
# ============================================================


def _marked_by_lattice(name):
    G = make_group(name)
    out = {}
    for e in marked_edges(G):
        lat = cycle_image_lattice(edge_orbit_graph(G, e))
        out[lat] = e
    return out


def test_i4_132_beta_graph_is_k4():
    G = make_group("I4_132")
    e = _marked_by_lattice("I4_132")[T108]
    raw = edge_orbit_graph(G, e, suppress=False)
    assert (len(raw.vertices), len(raw.edges)) == (10, 12)
    g = edge_orbit_graph(G, e)
    assert (len(g.vertices), len(g.edges)) == (4, 6)
    pairs = sorted((i, j) for i, j, _ in g.edges)
    assert pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert len(g.edges) - len(g.vertices) + 1 == 3


def test_p432_alpha_graph_suppresses_to_a_three_loop_bouquet():
    G = make_group("P432")
    (e,) = marked_edges(G)
    g = edge_orbit_graph(G, e)
    assert len(g.vertices) == 1
    assert g.edges == ((0, 0, (0, 0, 1)), (0, 0, (0, 1, 0)), (0, 0, (1, 0, 0)))


def test_suppression_preserves_cycle_image_and_betti():
    for name in GROUPS:
        G = make_group(name)
        for e in marked_edges(G):
            raw = edge_orbit_graph(G, e, suppress=False)
            g = edge_orbit_graph(G, e)
            assert cycle_image_lattice(raw) == cycle_image_lattice(g)
            assert len(raw.edges) - len(raw.vertices) == len(g.edges) - len(g.vertices)
            assert suppress_valence_two(g) == g


def test_edge_orbit_graph_accepts_any_orbit_member():
    # each member, listed, reversed or moved by a basis vector of T0, names its orbit
    for name in GROUPS:
        G = make_group(name)
        data = _singular_data(G)
        members: dict = {}
        for e in singular_graph(G):
            a, b = e.segment
            forms = [(a, b), (b, a)] + [(vadd(a, w), vadd(b, w)) for w in G.T0.vectors()]
            members.setdefault(e.orbit_id, []).extend(e._replace(segment=seg) for seg in forms)
        assert sorted(members) == list(range(len(data.edges)))
        for oid, edges in members.items():
            graphs = {edge_orbit_graph(G, e) for e in edges}
            assert graphs == {edge_orbit_graph(G, data.edges[oid])}, (name, oid)


def test_edge_orbit_graph_rejects_foreign_segment():
    G = make_group("P432")
    alien = SingularEdge(
        segment=((0, 0, 0), (Fraction(1, 3), 0, 0)),
        edge_index=2,
        link=(2, 2, 2, 3),
        orbit_id=0,
    )
    with pytest.raises(ValueError):
        edge_orbit_graph(G, alien)


def test_suppress_merges_a_path_and_keeps_circles():
    path = PeriodicGraph(
        group="P432",
        T0=T1,
        vertices=((0, 0, 0), (0, Fraction(1, 2), 0), (Fraction(1, 2), 0, 0)),
        edges=((0, 1, (0, 0, 0)), (1, 2, (1, 0, 0))),
    )
    merged = suppress_valence_two(path)
    assert len(merged.vertices) == 2
    assert merged.edges == ((0, 1, (1, 0, 0)),)
    cycle = PeriodicGraph(
        group="P432",
        T0=T1,
        vertices=((0, 0, 0), (0, Fraction(1, 2), 0)),
        edges=((0, 1, (0, 0, 0)), (0, 1, (1, 0, 0))),
    )
    circle = suppress_valence_two(cycle)
    assert len(circle.vertices) == 1
    assert circle.edges == ((0, 0, (1, 0, 0)),)


def test_suppression_matches_the_rescan_on_every_raw_orbit_graph():
    for name in GROUPS:
        G = make_group(name)
        for e in _singular_data(G).edges:
            raw = edge_orbit_graph(G, e, suppress=False)
            smooth = oracles.suppress_valence_two_by_rescan(raw)
            assert suppress_valence_two(raw) == smooth == edge_orbit_graph(G, e), (name, e.orbit_id)


SHIFTS = st.tuples(*[st.sampled_from((-1, 0, 1))] * 3)


def _multigraph(n, edges):
    return PeriodicGraph(group="P432", T0=T1, vertices=tuple((Fraction(k, n), 0, 0) for k in range(n)), edges=tuple(edges))


@st.composite
def multigraphs(draw):
    """1–8 vertices and 0–12 edges, loops, parallel edges and isolated vertices among them, often with a cycle."""
    n = draw(st.integers(1, 8))
    cycle = []
    if draw(st.booleans()):
        ring = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
        cycle = [(a, b, draw(SHIFTS)) for a, b in zip(ring, ring[1:] + ring[:1])]
    vertex = st.integers(0, n - 1)
    rest = draw(st.lists(st.tuples(vertex, vertex, SHIFTS), max_size=12 - len(cycle)))
    return _multigraph(n, cycle + rest)


@given(multigraphs())
@example(_multigraph(3, [(0, 1, (1, 0, 0)), (1, 2, (0, 1, 0)), (2, 0, (0, 0, 1))]))  # a pure cycle ends as one loop
@example(_multigraph(2, [(0, 0, (1, 0, 0)), (0, 1, (0, 0, 0)), (0, 1, (0, 0, 0))]))  # a loop and a parallel pair
@example(_multigraph(3, [(1, 1, (0, -1, 0))]))  # isolated vertices and a vertex whose two ends are one loop
def test_suppression_matches_the_rescan_on_random_multigraphs(g):
    assert suppress_valence_two(g) == oracles.suppress_valence_two_by_rescan(g)


def test_edge_orbit_graph_builds_one_periodic_graph_per_call(monkeypatch):
    built = []
    new = PeriodicGraph.__new__
    monkeypatch.setattr(PeriodicGraph, "__new__", lambda cls, *args, **kw: built.append(cls) or new(cls, *args, **kw))
    for name in GROUPS:
        G = make_group(name)
        for e in _singular_data(G).edges:
            for suppress in (True, False):
                built.clear()
                edge_orbit_graph(G, e, suppress=suppress)
                assert len(built) == 1, (name, e.orbit_id, suppress)


# order of a crystallographic rotation by its trace 1 + 2·cos(2π/order)
ORDER_OF_TRACE = {3: 1, -1: 2, 0: 3, 1: 4, 2: 6}


def test_the_trace_gives_the_order_of_every_coset_rotation():
    rots = []
    for name in GROUPS:
        G = make_group(name)
        rots += [c.rot for c in G.cosets] + [a for a, _ in G.maps[0]]
    assert len(rots) == 264
    assert all(ORDER_OF_TRACE[r[0][0] + r[1][1] + r[2][2]] == oracles.rotation_order(r) for r in rots)


def test_rotation_classes_match_a_copy_keyed_by_the_power_loop():
    for name in GROUPS:
        rots = tuple(a for a, _ in make_group(name).maps[0])
        assert _rotation_classes(rots) == oracles.rotation_classes_by_power_loop(rots), name


# ============================================================
# cycle image lattices (nine marked cases)
# ============================================================

EXPECTED_IMAGES = {
    "P432": {T1},
    "F4_132": {T2},
    "I4_132": {T4, T108},
    "I432": {T1, T4},
    "P4_232": {T2, T4},
    "P622": {HEX_PLANE},
}


def test_cycle_image_lattices_of_the_nine_marked_edges():
    for name in GROUPS:
        assert set(_marked_by_lattice(name)) == EXPECTED_IMAGES[name], name


def test_hex_cycle_image_has_rank_two():
    lat = next(iter(_marked_by_lattice("P622")))
    assert lat.rank == 2
    assert lat == hnf([(1, 0, 0), (0, 1, 0)])


def test_cycle_image_of_a_tree_is_trivial():
    # no cycle: the image is {0} at scale 1, also inside the I432 lattice at scale 1/2
    for name in ("P432", "I432"):
        g = PeriodicGraph(
            group=name,
            T0=make_group(name).T0,
            vertices=((0, 0, 0), (0, Fraction(1, 2), 0), (Fraction(1, 2), 0, 0)),
            edges=((0, 1, (0, 0, 0)), (0, 2, (1, 0, 0))),
        )
        assert cycle_image_lattice(g) == TRIVIAL_SUBGROUP


def test_cycle_image_is_invariant_under_relabeling():
    import random

    rng = random.Random(7)
    for name in ["P432", "I4_132", "P622"]:
        G = make_group(name)
        for e in marked_edges(G):
            g = edge_orbit_graph(G, e)
            expected = cycle_image_lattice(g)
            n = len(g.vertices)
            for _ in range(5):
                perm = list(range(n))
                rng.shuffle(perm)
                verts = [None] * n
                for old, new in enumerate(perm):
                    verts[new] = g.vertices[old]
                shuffled = PeriodicGraph(
                    group=g.group,
                    T0=g.T0,
                    vertices=tuple(verts),
                    edges=tuple((perm[i], perm[j], s) for i, j, s in g.edges),
                )
                assert cycle_image_lattice(shuffled) == expected


def test_cycle_image_raises_on_disconnected_graph():
    g = PeriodicGraph(
        group="P432",
        T0=T1,
        vertices=((0, 0, 0), (0, Fraction(1, 2), 0)),
        edges=((0, 0, (1, 0, 0)),),
    )
    with pytest.raises(Disconnected):
        cycle_image_lattice(g)


def test_claim_one_all_nine_preimages_connected():
    for name in GROUPS:
        G = make_group(name)
        for e in marked_edges(G):
            raw = edge_orbit_graph(G, e, suppress=False)
            cycle_image_lattice(raw)
            assert lift_connected_bruteforce(raw, G.T0)


# ============================================================
# lift criteria
# ============================================================


def test_lift_connected_with_the_full_lattice_is_true():
    for name in GROUPS:
        G = make_group(name)
        for e in marked_edges(G):
            g = edge_orbit_graph(G, e)
            assert lift_connected(g, G.T0)
            assert lift_connected_bruteforce(g, G.T0)


def test_i4_132_beta_lift_connectivity_depends_on_three_divisibility():
    G = make_group("I4_132")
    g = edge_orbit_graph(G, _marked_by_lattice("I4_132")[T108])
    for n in range(1, 7):
        T = instantiate("CUBIC_BODY", 2 * n)
        expected = n % 3 != 0
        assert lift_connected(g, T) is expected
        assert lift_connected_bruteforce(g, T) is expected


def test_lift_rejects_non_sublattices():
    G = make_group("I4_132")
    g = edge_orbit_graph(G, marked_edges(G)[0])
    with pytest.raises(NotASubgroup):
        lift_connected(g, T1)  # Z^3 is not inside T_4
    with pytest.raises(NotASubgroup):
        lift_connected(g, HEX_PLANE)
    with pytest.raises(NotASubgroup):
        lift_connected_bruteforce(g, T1)


def test_both_lift_routes_raise_on_an_empty_graph():
    T0 = make_group("P432").T0
    g = PeriodicGraph(group="P432", T0=T0, vertices=(), edges=())
    for route in (lift_connected, lift_connected_bruteforce):
        with pytest.raises(Disconnected, match="no vertices"):
            route(g, T0)


def test_lift_agreement_on_invariant_sublattices():
    for name in GROUPS:
        G = make_group(name)
        rows = normal_translation_subgroups(G, 27)
        for e in marked_edges(G):
            g = edge_orbit_graph(G, e)
            for L, family, pi1 in rows:
                assert lift_connected(g, L) == lift_connected_bruteforce(g, L)


@given(
    name=st.sampled_from(GROUPS),
    pivots=st.tuples(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=2),
    ),
    offs=st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    ),
)
def test_lift_agreement_on_random_sublattices(name, pivots, offs):
    G = make_group(name)
    a, b, c = pivots
    cols = [(a, offs[0] % b, offs[1] % c), (0, b, offs[2] % c), (0, 0, c)]
    T = hnf([from_coords(col, G.T0) for col in cols])
    assert is_subgroup(T, G.T0) and index(T, G.T0) == a * b * c
    for e in marked_edges(G):
        g = edge_orbit_graph(G, e)
        assert lift_connected(g, T) == lift_connected_bruteforce(g, T)


@st.composite
def t0_hnfs(draw, top=6):
    """A canonical integer column HNF in T0-coordinates with pivots at most top."""
    a, b, c = (draw(st.integers(1, top)) for _ in range(3))
    x = draw(st.integers(0, b - 1))
    y, z = (draw(st.integers(0, c - 1)) for _ in range(2))
    return ((a, x, y), (0, b, z), (0, 0, c))


@pytest.mark.parametrize("case", CASES, ids=["-".join(c) for c in CASES])
@given(basis=t0_hnfs())
def test_lift_routes_agree_on_random_t0_hnfs(case, basis):
    # every full-rank sublattice of T0 with pivots ≤ 6, not only the family instances:
    # the join criterion against the search over coset copies
    g = _cases(make_group(case[0]))[case[1]].graph
    T = _from_t0_hnfs(g.T0, (basis,))[0]
    assert index(T, g.T0) == basis[0][0] * basis[1][1] * basis[2][2]
    assert lift_connected(g, T) == lift_connected_bruteforce(g, T)


def test_lift_genus_of_k4_at_index_one_is_three():
    G = make_group("I4_132")
    g = edge_orbit_graph(G, _marked_by_lattice("I4_132")[T108])
    assert lift_genus(g, G.T0) == 3


def test_lift_genus_of_a_bouquet_is_its_rank():
    g = PeriodicGraph(
        group="P432",
        T0=T1,
        vertices=((0, 0, 0),),
        edges=((0, 0, (1, 0, 0)), (0, 0, (0, 1, 0)), (0, 0, (0, 0, 1))),
    )
    assert lift_genus(g, T1) == 3


def test_lift_genus_matches_the_order_identity():
    for name in GROUPS:
        G = make_group(name)
        for e in marked_edges(G):
            g = edge_orbit_graph(G, e)
            for L, family, pi1 in normal_translation_subgroups(G, 27):
                if not lift_connected(g, L):
                    continue
                k = index(L, G.T0)
                assert 12 * (lift_genus(g, L) - 1) == G.point_order * k


def test_lift_genus_raises_on_disconnected_lift():
    G = make_group("I4_132")
    g = edge_orbit_graph(G, _marked_by_lattice("I4_132")[T108])
    T = instantiate("CUBIC_BODY", 6)  # 3 | n blocks connectivity
    assert not lift_connected(g, T)
    with pytest.raises(Disconnected):
        lift_genus(g, T)

