"""Classification tables: accepted covering lattices, genus census, claim checks."""

import math
from functools import lru_cache
from itertools import accumulate, combinations
from typing import NamedTuple

from .errors import Disconnected, InvariantViolation, TorsymError
from .lattices import SubgroupHNF, checked_record, covolume, hnf, index, mat_det, relative_coordinates, smith_form
from .periodic_graphs import (
    _ORDER_PER_GENUS,
    PeriodicGraph,
    SingularEdge,
    _lifts,
    _link_euler12,
    _singular_data,
    cycle_image_lattice,
    edge_orbit_graph,
    lift_connected_bruteforce,
    marked_edges,
)
from .spacegroups import GROUP_NAMES, SpaceGroup, make_group
from .sublattices import HEX_TAGS, LatticeFamily, _check_index, _family_table, _walked_rows, instantiate, normal_translation_subgroups

__all__ = [
    "CASES", "SCHEMA_VERSION", "ClassificationRow", "ClaimCheck", "GenusEntry", "Theorem1Cell", "VerificationReport",
    "classify_case", "labeled_marked_edges", "report_to_json", "report_to_text", "rows_to_csv", "rows_to_json",
    "rows_to_text", "table_to_csv", "table_to_json", "table_to_text", "theorem1_cells", "theorem1_table",
    "verify_claims", "verify_tables",
]

# ============================================================
# the paper's claims
# ============================================================


class _ClaimedFamily(NamedTuple):
    """One accepted lattice family of a case: its constraint, and genus - 1 = claimed_coefficient * n^claimed_exponent as `form`."""

    tag: str
    claimed_constraint: str
    form: str
    claimed_coefficient: int
    claimed_exponent: int


class _CaseClaim(NamedTuple):
    """The paper's claims for one case: its cycle image I, its knotted column, and its accepted families in report order."""

    claimed_image: SubgroupHNF
    knotted: bool
    families: tuple[_ClaimedFamily, ...]


# Theorem 1, one record per (group, marked edge) case in the paper's column
# order.  An alpha edge bounds a product region on both sides; beta and gamma
# do not.  Only the verification reads the claim-only fields, each named
# `claimed_…`; a group's marked-class count is its number of cases.
THEOREM_1: dict[tuple[str, str], _CaseClaim] = {
    ("P432", "alpha"): _CaseClaim(instantiate("CUBIC_PRIMITIVE", 1), False, (
        _ClaimedFamily("CUBIC_PRIMITIVE", "none", "2n^3", 2, 3),
        _ClaimedFamily("CUBIC_FACE", "none", "4n^3", 4, 3),
        _ClaimedFamily("CUBIC_BODY", "none", "8n^3", 8, 3),
    )),
    ("F4_132", "alpha"): _CaseClaim(instantiate("CUBIC_FACE", 1), False, (
        _ClaimedFamily("CUBIC_FACE", "none", "2n^3", 2, 3),
        _ClaimedFamily("CUBIC_PRIMITIVE", "none", "8n^3", 8, 3),
        _ClaimedFamily("CUBIC_BODY", "none", "4(2n)^3", 32, 3),
    )),
    ("I4_132", "alpha"): _CaseClaim(instantiate("CUBIC_BODY", 2), False, (
        _ClaimedFamily("CUBIC_BODY", "none", "2n^3", 2, 3),
        _ClaimedFamily("CUBIC_PRIMITIVE", "none", "4n^3", 4, 3),
        _ClaimedFamily("CUBIC_FACE", "none", "8n^3", 8, 3),
    )),
    ("I432", "beta"): _CaseClaim(instantiate("CUBIC_PRIMITIVE", 1), True, (
        _ClaimedFamily("CUBIC_BODY", "2∤n", "2n^3", 2, 3),
    )),
    ("P4_232", "beta"): _CaseClaim(instantiate("CUBIC_FACE", 1), True, (
        _ClaimedFamily("CUBIC_PRIMITIVE", "2∤n", "2n^3", 2, 3),
        _ClaimedFamily("CUBIC_BODY", "2∤n", "8n^3", 8, 3),
    )),
    ("P4_232", "gamma"): _CaseClaim(instantiate("CUBIC_BODY", 2), True, (
        _ClaimedFamily("CUBIC_PRIMITIVE", "2∤n", "2n^3", 2, 3),
        _ClaimedFamily("CUBIC_FACE", "2∤n", "4n^3", 4, 3),
    )),
    ("I432", "gamma"): _CaseClaim(instantiate("CUBIC_BODY", 2), True, (
        _ClaimedFamily("CUBIC_BODY", "2∤n", "2n^3", 2, 3),
    )),
    ("I4_132", "beta"): _CaseClaim(instantiate("CUBIC_BODY", 6), True, (
        _ClaimedFamily("CUBIC_BODY", "3∤n", "2n^3", 2, 3),
        _ClaimedFamily("CUBIC_PRIMITIVE", "3∤n", "4n^3", 4, 3),
        _ClaimedFamily("CUBIC_FACE", "3∤n", "8n^3", 8, 3),
    )),
    ("P622", "beta"): _CaseClaim(hnf([(1, 0, 0), (0, 1, 0)]), True, (
        _ClaimedFamily("HEX_PRIMITIVE", "m=1", "n^2", 1, 2),
        _ClaimedFamily("HEX_ROT", "m=1", "3n^2", 3, 2),
    )),
}

CASES: tuple[tuple[str, str], ...] = tuple(THEOREM_1)

EDGE_LABELS = ("alpha", "beta", "gamma")


# ============================================================
# domain types
# ============================================================


# an accepted exponent is 1, a power of 2 or of 3, or 0 (`_derived_exponent`); its one prime names its word
_WORDS = {1: "none", 2: "2∤n", 3: "3∤n", 0: "m=1"}


def _word(e: int | None) -> str | None:
    """The constraint word that rows and tables print for a family of exponent e; None for a rejected family."""
    return None if e is None else _WORDS[e and math.gcd(e, 6)]


# the family-table entry (u, v, L₁, i₁) of a tag outside the table: no multiplier, and index 0, under every bound
_OUTSIDE = (None, None, None, 0)


def _accepts(e: int | None, n: int, m: int | None) -> bool:
    """Theorem 1's verdict on the instance (n, m) of a family of exponent e: L₁ + I = T0 and gcd(k, e) = 1, k = m if e = 0, else n."""
    return e is not None and math.gcd(n if e else m, e) == 1


class ClassificationRow(checked_record("ClassificationRow", "group edge_label orbit_id family n m lattice constraint lattice_index group_order genus knotted")):
    """One accepted covering lattice for a marked edge: built from its group, edge label and family, every other column derived."""

    __slots__ = ()

    def __new__(cls, group: str, edge_label: str, family: LatticeFamily) -> "ClassificationRow":
        if group not in GROUP_NAMES:
            raise ValueError(f"unknown group {group!r}")
        if type(family) is not LatticeFamily:
            raise ValueError(f"family must be a LatticeFamily, got {family!r}")
        G = make_group(group)
        case = _case(G, edge_label)
        mult, v, _, i1 = _family_table(G.T0, G.frame.name).get(family.tag, _OUTSIDE)
        if mult is None or family.n % mult:
            raise ValueError(f"{group}: {family.tag} parameter {family.n} is not a multiple of its multiplier {mult!r}")
        n, m, e = family.n // mult, family.m, case.exponents[family.tag]
        if not _accepts(e, n, m):
            raise ValueError(f"{group} {edge_label} rejects {family.tag} n={n}, m={m}")
        # [T0 : instance] off the family table, as the survey reads it; `verify_tables` checks it against `index`
        d = i1 * n**3 if v is None else i1 * n * n * (m // v)
        pi1, knotted = G.point_order * d, THEOREM_1[(group, edge_label)].knotted
        return tuple.__new__(cls, (group, edge_label, case.edge.orbit_id, family, n, m, family.instantiate(), _word(e), d, pi1, pi1 // _ORDER_PER_GENUS + 1, knotted))

    @classmethod
    def _make(cls, values) -> "ClassificationRow":
        """The row of fields 0, 1 and 3; a ValueError names the first other field whose value or type differs from it."""
        values = tuple(values)
        row = cls(values[0], values[1], values[3])
        for field, given, derived in zip(cls._fields, values, row, strict=True):
            if type(given) is not type(derived) or given != derived:
                raise ValueError(f"{field} must be the derived {derived!r}, got {given!r}")
        return row

    @property
    def lattice_label(self) -> str:
        """Volume-subscript name of the lattice, such as T_4 or T_1/2 or Tw_3."""
        v = covolume(self.lattice)
        prefix = "Tw" if self.family.tag in HEX_TAGS else "T"
        return f"{prefix}_{v}"

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "edge": self.edge_label,
            "orbit_id": self.orbit_id,
            "family": self.family.to_json(),
            "n": self.n,
            "m": self.m,
            "lattice": self.lattice.to_json(),
            "lattice_label": self.lattice_label,
            "constraint": self.constraint,
            "lattice_index": self.lattice_index,
            "group_order": self.group_order,
            "genus": self.genus,
            "knotted": self.knotted,
        }


class Theorem1Cell(NamedTuple):
    """One symbolic genus form in the nine-column census."""

    column: int
    group: str
    edge_label: str
    form: str
    coefficient: int
    exponent: int
    constraint: str
    knotted: bool

    def genus_minus_one(self, n: int) -> int:
        return self.coefficient * n**self.exponent


class GenusEntry(NamedTuple):
    """All maximal-order actions at one genus."""

    genus: int
    actions: tuple[tuple[int, "ClassificationRow"], ...]  # (column, row)
    unknotted: int
    knotted: int

    @property
    def group_order(self) -> int:
        return _ORDER_PER_GENUS * (self.genus - 1)


class ClaimCheck(NamedTuple):
    """Connectivity and cycle-image verdict for one marked edge."""

    group: str
    edge_label: str
    connected: bool
    computed_image: SubgroupHNF
    expected_image: SubgroupHNF

    @property
    def ok(self) -> bool:
        return self.connected and self.computed_image == self.expected_image


class VerificationReport(NamedTuple):
    """Per-case image checks plus one line per other false claim (`table_errors`, its JSON key)."""

    checks: tuple[ClaimCheck, ...]
    table_errors: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks) and not self.table_errors


# ============================================================
# the cases of a group
# ============================================================


class _Case(NamedTuple):
    """One labelled marked edge orbit: its edge, suppressed quotient graph, cycle image and exponent per family tag."""

    edge: SingularEdge
    graph: PeriodicGraph
    image: SubgroupHNF
    exponents: dict[str, int | None]


def labeled_marked_edges(name: str) -> dict[str, SingularEdge]:
    """The group's marked edge orbits keyed by label (the rule is in `_cases`), in label order, as a new dict per call."""
    return {label: case.edge for label, case in _cases(make_group(name)).items()}


@lru_cache(maxsize=None)
def _cases(G: SpaceGroup) -> dict[str, _Case]:
    """G's marked edge orbits as cases by label, in label order, each case's exponents in the family table's report order.

    Alpha is the orbit whose cycle image I is all of T0.  The others take
    beta, then gamma, by ascending [T0 : I], a rank-2 I counting as
    infinite.  A tie, or more orbits than labels, raises InvariantViolation.
    """
    table = _family_table(G.T0, G.frame.name)
    orbits = []
    for e in marked_edges(G):
        g = edge_orbit_graph(G, e)
        I = cycle_image_lattice(g)
        orbits.append((index(I, G.T0) if I.rank == 3 else math.inf, e.orbit_id, e, g, I))
    orbits.sort(key=lambda o: o[:2])
    first = 0 if orbits and orbits[0][0] == 1 else 1
    if len({o[0] for o in orbits}) != len(orbits) or first + len(orbits) > len(EDGE_LABELS):
        raise InvariantViolation(f"{G.name}: marked orbits of [T0 : I] {[o[0] for o in orbits]} take no labels")
    return {
        label: _Case(e, g, I, {tag: _derived_exponent(I, G.T0, tag, L1) for tag, (_, _, L1, _) in table.items()})
        for label, (_, _, e, g, I) in zip(EDGE_LABELS[first:], orbits)
    }


def _derived_exponent(I: SubgroupHNF, T0: SubgroupHNF, tag: str, L1: SubgroupHNF) -> int | None:
    """The exponent e of T0/I that decides one lattice family (`_accepts`); None rejects the family.

    A covering lattice T is accepted iff T + I = T0, with I the cycle image
    of the case graph, and `_fills_t0` decides L₁ + I = T0.  e ≥ 0 generates
    the ideal of all k with k·(T0/I) = 0: the last Smith invariant of I in
    T0-coordinates for a rank-3 I, and 0 for T0/I ≅ ℤ (Newman, *Integral
    Matrices*, ch. II).

    Cubic family, I of rank 3: the instance with reduced parameter n is n·L₁,
    L₁ = instantiate(tag, mult).  T0/I is finite, and e has the primes of
    [T0 : I].  The image of n·L₁ in T0/I is n times the image of L₁.  If
    L₁ + I ≠ T0, that is a proper subgroup for every n.  Otherwise it is
    n·(T0/I), which is all of T0/I iff gcd(n, e) = 1.

    Hexagonal family, I of rank 2: the instance is n·P + ℤ·m·e₃, with P the
    planar part of L₁ = instantiate(tag, mult, 1).  If T0/I ≅ ℤ (Smith
    invariants 1, 1), the quotient is torsion-free, so I = T0 ∩ span(I).
    When I also lies in the plane z = 0, it contains P.  The image of the
    instance in T0/I ≅ ℤ is then m times the image of L₁, which is all of ℤ
    iff L₁ + I = T0 and gcd(m, 0) = m = 1.
    """
    if tag in HEX_TAGS and (I.rank != 2 or any(h[2] for h in I.basis)):
        raise InvariantViolation(f"{tag}: cycle image is not a lattice in the plane z = 0")
    if tag not in HEX_TAGS and I.rank != 3:
        raise InvariantViolation(f"{tag}: cycle image of rank {I.rank}, not 3")
    # from here a hexagonal family has I of rank 2, a cubic one of rank 3
    _, diag, _ = smith_form(list(zip(*relative_coordinates(I, T0))))
    if I.rank == 2 and diag != [1, 1]:
        raise InvariantViolation(f"{tag}: T0/I has torsion, Smith invariants {diag}")
    if not _fills_t0(L1, I, T0):
        return None
    e = diag[-1] if I.rank == 3 else 0
    # the primes of e all divide 6 iff e | 6^e, since no exponent in e exceeds e
    if e and (math.gcd(e, 6) == 6 or pow(6, e, e)):
        raise InvariantViolation(f"{tag}: no listed constraint for [T0 : I] = {math.prod(diag)}")
    return e


def _fills_t0(L: SubgroupHNF, I: SubgroupHNF, T0: SubgroupHNF) -> bool:
    """L + I = T0 for subgroups L and I of T0, decided by a determinantal divisor instead of the join.

    Their columns in T0-coordinates generate ℤ³ iff d₁·d₂·d₃, the gcd of
    their 3×3 minors, is 1 (Cohen, GTM 138, §2.4).
    """
    cols = relative_coordinates(L, T0) + relative_coordinates(I, T0)
    return 1 in accumulate(map(mat_det, combinations(cols, 3)), math.gcd, initial=0)


def _case(G: SpaceGroup, edge: str) -> _Case:
    """G's case for a marked edge label: a ValueError if G has no such edge, an InvariantViolation if `CASES` names it."""
    cases = _cases(G)
    if edge not in cases:
        fault = InvariantViolation if (G.name, edge) in CASES else ValueError
        raise fault(f"{G.name} has no edge {edge}; choose from {sorted(cases)}")
    return cases[edge]


# ============================================================
# classification
# ============================================================


def classify_case(group: str, edge: str, max_index: int) -> list[ClassificationRow]:
    """All accepted covering lattices for one marked edge up to a lattice index."""
    _check_index(max_index, "max_index")
    return _classify(make_group(group), edge, max_index)


def _classify(G: SpaceGroup, edge: str, max_index: int) -> list[ClassificationRow]:
    """`classify_case` on the record G; each accepted row is built from G's name, the edge and its family, and derives the rest from the named group."""
    case, table = _case(G, edge), _family_table(G.T0, G.frame.name)
    order = list(table)

    rows = []
    for L, fam, _ in normal_translation_subgroups(G, max_index):
        mult = table.get(fam.tag, _OUTSIDE)[0]
        if mult is None or fam.n % mult:
            raise InvariantViolation(f"{G.name}: {fam.tag} parameter {fam.n} is not a multiple of its multiplier {mult}")
        n, m, e = fam.n // mult, fam.m, case.exponents[fam.tag]
        accepted = _accepts(e, n, m)
        # the lift criterion on the case's cycle image is the second route to every verdict
        if _lifts(case.image, L, G.T0) != accepted:
            raise InvariantViolation(f"{G.name} {edge}: lift of {fam.tag} n={n}, m={m} disagrees with the derived constraint {_word(e)!r}")
        if accepted:
            rows.append(ClassificationRow(G.name, edge, fam))
    rows.sort(key=lambda r: (r.lattice_index, order.index(r.family.tag), r.n))
    return rows


# ============================================================
# the genus census
# ============================================================


def _genus_forms(G: SpaceGroup) -> dict[str, tuple[int, int]]:
    """genus − 1 = c·k^e per family tag of G: an instance has index i₁·k³ in T0, or i₁·k² at m = v, so c = |P|·i₁/12 and e = 3 or 2."""
    return {tag: (G.point_order * i1 // _ORDER_PER_GENUS, 3 if v is None else 2) for tag, (_, v, _, i1) in _family_table(G.T0, G.frame.name).items()}


def theorem1_cells() -> tuple[Theorem1Cell, ...]:
    """The symbolic nine-column census of genus forms: each claimed family's form, derived from its family table."""
    return tuple(
        Theorem1Cell(
            column=column, group=group, edge_label=edge, form=f.form, coefficient=c, exponent=e,
            constraint=_word(_case(G, edge).exponents[f.tag]), knotted=claim.knotted,
        )
        for column, ((group, edge), claim) in enumerate(THEOREM_1.items(), start=1)
        for G in [make_group(group)]
        for f in claim.families
        for c, e in [_genus_forms(G)[f.tag]]
    )


def theorem1_table(max_genus: int) -> list[GenusEntry]:
    """Every maximal-order action of genus at most max_genus, grouped by genus."""
    if type(max_genus) is not int or max_genus < 2:
        raise ValueError(f"max_genus must be an integer at least 2, got {max_genus!r}")
    by_genus: dict[int, list[tuple[int, ClassificationRow]]] = {}
    for column, (group, edge) in enumerate(CASES, start=1):
        bound = _ORDER_PER_GENUS * (max_genus - 1) // make_group(group).point_order
        if bound < 1:
            continue
        # index d ≤ 12(g−1)//|P| gives genus ≤ g, and the columns come in ascending order
        for row in classify_case(group, edge, bound):
            by_genus.setdefault(row.genus, []).append((column, row))
    entries = []
    for genus in sorted(by_genus):
        actions = tuple(by_genus[genus])
        knotted = sum(1 for _, row in actions if row.knotted)
        entries.append(GenusEntry(genus=genus, actions=actions, unknotted=len(actions) - knotted, knotted=knotted))
    return entries


# ============================================================
# claim verification
# ============================================================


def verify_claims() -> VerificationReport:
    """Check the paper's claims against what the pipeline derives; each false claim fails the report.

    Per case, the raw marked edge graph must be connected with the claimed
    cycle image I (`claimed_image`).  Per group, the sweep must find as many
    marked edge classes as `THEOREM_1` has cases of the group, labelled as
    the cases name them.  Each claimed family's census form must be the one
    its family table gives (`_genus_forms`).  `knotted` is checked by one route: a Heegaard
    surface is π₁-surjective on both sides, so an unknotted row needs the
    image I ∩ T of the lifted graph's H₁ in T to be all of T.  An accepted T
    has I + T = T0, and T ⊆ I then forces I = T0: I ≠ T0 makes every
    accepted row knotted.  The three alpha cases (I = T0) stay claim-only
    until a second route shows their complement to be a product region.
    Riemann–Hurwitz ties each singular edge orbit's link to its orbit graph:
    G/T0 acts on the boundary of a neighbourhood of a connected orbit graph
    in T³/T0, of genus 1 + E − V, with the link's orbifold as quotient, so
    24·(E − V) = −|P|·12χ(link).  An orbit graph that is not connected
    modulo T0 bounds no one surface there and is skipped.
    """
    checks, errors = [], []
    for group in dict.fromkeys(g for g, _ in THEOREM_1):
        # each marked class takes one label, so a wrong count is one false claim, not two
        labels, named = sorted(labeled_marked_edges(group)), sorted(e for g, e in THEOREM_1 if g == group)
        if len(labels) != len(named):
            errors.append(f"{group}: {len(labels)} marked edge classes, claimed {len(named)}")
        elif labels != named:
            errors.append(f"{group}: marked edges carry labels {labels}, the cases name {named}")
    for (group, label), claim in THEOREM_1.items():
        G = make_group(group)
        forms = _genus_forms(G)
        for f in claim.families:
            if forms.get(f.tag) != (f.claimed_coefficient, f.claimed_exponent):
                errors.append(f"{group} {label}: {f.tag} claims genus − 1 = {f.claimed_coefficient}·n^{f.claimed_exponent}, the family table (c, e) = {forms.get(f.tag)}")
        e = labeled_marked_edges(group).get(label)
        if e is None:
            continue
        raw = edge_orbit_graph(G, e, suppress=False)
        connected = lift_connected_bruteforce(raw, G.T0)
        computed = cycle_image_lattice(raw) if connected else hnf([])
        checks.append(ClaimCheck(
            group=group, edge_label=label, connected=connected, computed_image=computed, expected_image=claim.claimed_image,
        ))
        if computed != G.T0 and not claim.knotted:
            errors.append(f"{group} {label}: claimed unknotted, but I ≠ T0 makes every accepted row knotted")
    for G in map(make_group, GROUP_NAMES):
        for e in _singular_data(G).edges:
            g = edge_orbit_graph(G, e)
            try:
                cycle_image_lattice(g)
            except Disconnected:
                continue
            lhs, rhs = 24 * (len(g.edges) - len(g.vertices)), -G.point_order * _link_euler12(e.link)
            if lhs != rhs:
                errors.append(f"{G.name} edge orbit {e.orbit_id}: 24·(E − V) = {lhs}, but −|P|·12χ of the link {e.link} is {rhs}")
    return VerificationReport(checks=tuple(checks), table_errors=tuple(errors))


# the largest bound verify runs the per-index route to; its time and memory grow linearly, to 14.5 s and 120 MB at 50,000 on a 2-core box
_WALK_LIMIT = 50_000


def verify_tables(max_index: int) -> VerificationReport:
    """Claim checks plus survivor families and constraints against `THEOREM_1`, each row's index against its lattice's, and each group's closed-form survey against the per-index route (to `_WALK_LIMIT`)."""
    _check_index(max_index, "max_index")
    if max_index > _WALK_LIMIT:
        raise TorsymError(f"verify to index {max_index}: the per-index route is past the cap of {_WALK_LIMIT}")
    report = verify_claims()
    errors = list(report.table_errors)
    for group, edge in ((c.group, c.edge_label) for c in report.checks):
        rows = classify_case(group, edge, max_index)
        found = list(dict.fromkeys((row.family.tag, row.constraint) for row in rows))
        # a family shows up once its first instance (n = 1, and m = 1 for the
        # hexagonal ones) fits under the index bound; one outside the frame is never found
        G = make_group(group)
        table = _family_table(G.T0, G.frame.name)
        families = THEOREM_1[(group, edge)].families
        expected = [(f.tag, f.claimed_constraint) for f in families if table.get(f.tag, _OUTSIDE)[3] <= max_index]
        if found != expected:
            errors.append(f"{group} {edge}: survivors {found} do not match {expected}")
        # each row's index, read off the family table as its genus and its cell's form are, against its lattice's HNF
        bad = [(r.family.tag, r.n) for r in rows if r.lattice_index != index(r.lattice, G.T0)]
        if bad:
            errors.append(f"{group} {edge}: the family table's index is not the lattice's at {bad}")
    # the per-index route (`_walked_rows`) is the second route to each group's closed-form survey
    for G in map(make_group, GROUP_NAMES):
        if normal_translation_subgroups(G, max_index) != _walked_rows(G, max_index):
            errors.append(f"{G.name}: the closed-form survey to index {max_index} differs from the per-index route")
    return VerificationReport(checks=report.checks, table_errors=tuple(errors))


# ============================================================
# emitters
# ============================================================

SCHEMA_VERSION = 1


def _fmt_params(row: ClassificationRow) -> str:
    return f"n={row.n}" if row.m is None else f"n={row.n},m={row.m}"


def rows_to_text(rows: list[ClassificationRow]) -> str:
    header = ("lattice", "family", "params", "constraint", "index", "order", "genus", "knotted")
    body = [
        (
            row.lattice_label,
            row.family.tag,
            _fmt_params(row),
            row.constraint,
            str(row.lattice_index),
            str(row.group_order),
            str(row.genus),
            "yes" if row.knotted else "no",
        )
        for row in rows
    ]
    widths = [max(len(line[i]) for line in [header, *body]) for i in range(len(header))]
    out = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for line in body:
        out.append("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip())
    return "\n".join(out)


def rows_to_json(rows: list[ClassificationRow]) -> dict:
    return {"schema_version": SCHEMA_VERSION, "rows": [row.to_json() for row in rows]}


def _csv(header: str, records) -> str:
    """The header, then one line of comma-separated fields per record; a None field is left empty."""
    return "\n".join([header, *(",".join("" if x is None else str(x) for x in record) for record in records)])


def rows_to_csv(rows: list[ClassificationRow]) -> str:
    return _csv(
        "group,edge,family,n,m,constraint,lattice_index,group_order,genus,knotted",
        ((r.group, r.edge_label, r.family.tag, r.n, r.m, r.constraint, r.lattice_index, r.group_order, r.genus, int(r.knotted)) for r in rows),
    )


def table_to_text(entries: list[GenusEntry]) -> str:
    out = []
    for entry in entries:
        out.append(
            f"genus {entry.genus}  order {entry.group_order}  "
            f"actions {len(entry.actions)} ({entry.unknotted} unknotted, "
            f"{entry.knotted} knotted)"
        )
        for column, row in entry.actions:
            out.append(
                f"  column {column}: {row.group} {row.edge_label} "
                f"{row.lattice_label} ({_fmt_params(row)})"
            )
    return "\n".join(out)


def table_to_json(entries: list[GenusEntry]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "genera": [
            {
                "genus": entry.genus,
                "group_order": entry.group_order,
                "unknotted": entry.unknotted,
                "knotted": entry.knotted,
                "actions": [
                    {"column": column, **row.to_json()} for column, row in entry.actions
                ],
            }
            for entry in entries
        ],
    }


def table_to_csv(entries: list[GenusEntry]) -> str:
    return _csv(
        "genus,group_order,column,group,edge,family,n,m,lattice_index,knotted",
        (
            (entry.genus, entry.group_order, column, r.group, r.edge_label, r.family.tag, r.n, r.m, r.lattice_index, int(r.knotted))
            for entry in entries
            for column, r in entry.actions
        ),
    )


def report_to_text(report: VerificationReport) -> str:
    out = []
    for c in report.checks:
        verdict = "ok" if c.ok else "FAIL"
        out.append(
            f"{c.group} {c.edge_label}: connected={str(c.connected).lower()} "
            f"image={'match' if c.computed_image == c.expected_image else 'MISMATCH'} "
            f"[{verdict}]"
        )
    for err in report.table_errors:
        out.append(f"claim: {err} [FAIL]")
    out.append("PASS" if report.ok else "FAIL")
    return "\n".join(out)


def report_to_json(report: VerificationReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "checks": [
            {
                "group": c.group,
                "edge": c.edge_label,
                "connected": c.connected,
                "computed_image": c.computed_image.to_json(),
                "expected_image": c.expected_image.to_json(),
                "ok": c.ok,
            }
            for c in report.checks
        ],
        "table_errors": list(report.table_errors),
        "ok": report.ok,
    }
