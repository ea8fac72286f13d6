"""Guards on the package source itself, read with `ast`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import torsym

SRC = Path(torsym.__file__).resolve().parent


def _unreferenced_definitions(src: Path) -> list[str]:
    """Module-level functions and classes of the package that no other definition in it names.

    A name counts as referenced where it is read in any top-level statement
    of any module other than its own definition, as a bare name or as an
    attribute.  Imports alone do not count.
    """
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                defined.append((path.stem, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    used.add(node.attr)
    return [f"{module}.{name}" for module, name in defined if name not in used and name not in torsym.__all__]


def test_every_definition_is_referenced_or_exported():
    # code that only the tests call belongs in tests/oracles.py, not in the package
    assert _unreferenced_definitions(SRC) == []


# the claim-only fields of the paper's table, which only the verification may read
CLAIM_FIELDS = {"claimed_image", "claimed_constraint", "claimed_coefficient", "claimed_exponent"}
VERIFIERS = {"verify_claims", "verify_tables"}


def _claim_reads(src: Path) -> list[str]:
    """Places outside the verifiers that read a claim-only field, as module:line:name."""
    out = []
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name in VERIFIERS:
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id if isinstance(node.ctx, ast.Load) else None  # a definition stores it
                else:
                    name = getattr(node, "attr", None)
                if name in CLAIM_FIELDS:
                    out.append(f"{path.stem}:{node.lineno}:{name}")
    return out


def test_only_the_verifiers_read_the_claim_tables():
    # labels, multipliers, report order, marked counts and constraints are derived, never looked up
    assert _claim_reads(SRC) == []
    assert not any("FAMILY_MULTIPLIERS" in path.read_text(encoding="utf-8") for path in SRC.glob("*.py"))


def test_the_claim_guard_reports_a_read_outside_the_verifiers(tmp_path):
    (tmp_path / "probe.py").write_text(
        "def verify_tables(f):\n"
        "    return f.claimed_constraint\n"
        "def rows(f):\n"
        "    return f.claimed_constraint\n"
        "image = claimed_image\n",
        encoding="utf-8",
    )
    assert _claim_reads(tmp_path) == ["probe:4:claimed_constraint", "probe:5:claimed_image"]


def _unchecked_tuple_news(src: Path) -> list[str]:
    """Calls of `tuple.__new__` in the package that build a record past its checks, as module:line.

    A call is checked where it is the last statement, a return, of the
    `__new__` of a class built on `checked_record`, and an earlier statement
    of that `__new__` raises; anywhere else it would be a constructor that
    trusts its arguments.
    """
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        checked = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                isinstance(base, ast.Call) and getattr(base.func, "id", None) == "checked_record" for base in cls.bases
            ):
                for fn in cls.body:
                    if (
                        isinstance(fn, ast.FunctionDef)
                        and fn.name == "__new__"
                        and isinstance(fn.body[-1], ast.Return)
                        and any(isinstance(node, ast.Raise) for stmt in fn.body[:-1] for node in ast.walk(stmt))
                    ):
                        checked |= set(map(id, ast.walk(fn.body[-1])))
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "__new__"
            and getattr(node.func.value, "id", None) == "tuple"
            and id(node) not in checked
        ]
        out += [f"{path.stem}:{line}" for line in sorted(lines)]
    return out


def test_every_record_is_built_through_its_checks():
    # no trusted constructor: each tuple.__new__ returns a record only after that record's own checks
    assert _unchecked_tuple_news(SRC) == []


def test_the_record_guard_reports_a_tuple_built_past_the_checks(tmp_path):
    (tmp_path / "probe.py").write_text(
        "class R(checked_record('R', 'a')):\n"
        "    def __new__(cls, a):\n"
        "        if a is None:\n"
        "            raise ValueError(a)\n"
        "        return tuple.__new__(cls, (a,))\n"
        "    @classmethod\n"
        "    def trusted(cls, a):\n"
        "        return tuple.__new__(cls, (a,))\n"
        "class S(checked_record('S', 'a')):\n"
        "    def __new__(cls, a):\n"
        "        if a:\n"
        "            return tuple.__new__(cls, (a,))\n"
        "        raise ValueError(a)\n"
        "class T(tuple):\n"
        "    def __new__(cls, a):\n"
        "        if a is None:\n"
        "            raise ValueError(a)\n"
        "        return tuple.__new__(cls, (a,))\n"
        "row = tuple.__new__(R, (1,))\n",
        encoding="utf-8",
    )
    assert _unchecked_tuple_news(tmp_path) == ["probe:8", "probe:12", "probe:18", "probe:19"]


# the lattice predicates run on the integer HNF; only the join still reads the `Fraction` basis vectors
VECTOR_READERS = {"lattices.join"}


def _top_level_name(stmt: ast.stmt) -> str:
    if isinstance(stmt, ast.Assign):
        return ast.unparse(stmt.targets[0])
    if isinstance(stmt, ast.AnnAssign):
        return ast.unparse(stmt.target)
    return getattr(stmt, "name", str(stmt.lineno))


def _callers(src: Path, callee: str) -> list[str]:
    """Top-level definitions and assignments that call `callee(` or `.callee(`, as module.name."""
    out = []
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    out.append(f"{path.stem}.{_top_level_name(stmt)}")
    return out


# the constraint words that rows and tables print: the verdict is arithmetic, so the package spells them
# only in the table that renders an exponent (`classify._WORDS`) and in the paper's claimed constraints
WORDS = {"2∤n", "3∤n", "m=1"}


def _word_literals(src: Path) -> list[str]:
    """String constants of the package that spell a constraint word anywhere else, as module:line.

    A word may stand in the top-level assignment to `_WORDS`, and as the
    `claimed_constraint` of a `_ClaimedFamily` in the one to `THEOREM_1`.
    """
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for stmt in tree.body:
            if _top_level_name(stmt) == "_WORDS":
                allowed |= set(map(id, ast.walk(stmt)))
            elif _top_level_name(stmt) == "THEOREM_1":
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_ClaimedFamily":
                        claimed = node.args[1:2] + [k.value for k in node.keywords if k.arg == "claimed_constraint"]
                        allowed |= set(map(id, claimed))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value in WORDS and id(node) not in allowed]
        out += [f"{path.stem}:{line}" for line in sorted(lines)]
    return out


def test_the_constraint_words_are_only_a_rendering():
    assert _word_literals(SRC) == []


def test_the_word_guard_reports_a_word_outside_the_rendering(tmp_path):
    (tmp_path / "probe.py").write_text(
        '_WORDS = {2: "2∤n", 0: "m=1"}\n'
        'THEOREM_1 = {"c": (_ClaimedFamily("T", "3∤n", "2∤n"), _ClaimedFamily("T", claimed_constraint="m=1"))}\n'
        "def holds(word, n):\n"
        '    return word == "2∤n" and n % 2\n'
        'words = ("none", "3∤n")\n',
        encoding="utf-8",
    )
    assert _word_literals(tmp_path) == ["probe:2", "probe:4", "probe:5"]


def _exports_defined_elsewhere(src: Path) -> list[str]:
    """Names listed in a module's `__all__` that no top-level statement of that module defines, as module.name."""
    out = []
    for path in sorted(src.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        defined = {_top_level_name(stmt) for stmt in body}
        for stmt in body:
            if _top_level_name(stmt) == "__all__":
                out += [f"{path.stem}.{c.value}" for c in ast.walk(stmt.value) if isinstance(c, ast.Constant) and c.value not in defined]
    return out


def test_each_export_is_written_once_beside_its_definition():
    # the package re-exports each module's `__all__` and lists no name itself
    assert _exports_defined_elsewhere(SRC) == []


def test_the_export_guard_reports_a_name_listed_away_from_its_definition(tmp_path):
    (tmp_path / "probe.py").write_text('from .m import *\n__all__ = ["f", "g", *m.__all__]\ndef f():\n    pass\n', encoding="utf-8")
    assert _exports_defined_elsewhere(tmp_path) == ["probe.g"]


def test_one_kernel_looks_up_and_meets_the_prime_power_parts():
    # invariant_sublattices and the survey's second route both run the per-index kernel, the one place
    # that looks up the invariant lattices of a prime-power index and meets them
    for callee in ("_coprime_meet", "_invariant_p_power"):
        assert _callers(SRC, callee) == ["sublattices._of_index"], callee


def test_only_the_join_reads_fraction_vectors():
    assert sorted(set(_callers(SRC, "vectors")) - VECTOR_READERS) == []


# each case carries its cycle image, found once per graph: `_cases` for the classification, and `verify_claims`
# for the raw graphs and the Riemann–Hurwitz check
IMAGE_FINDERS = {"classify._cases", "classify.verify_claims"}


def _images_found_again(src: Path) -> list[str]:
    """A decorator on, or a top-level rebinding of, `cycle_image_lattice` (a cache keyed on the graph), and each
    definition in `classify` outside `IMAGE_FINDERS` that calls it, as module.name."""
    out = []
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            decorated = isinstance(stmt, ast.FunctionDef) and stmt.decorator_list
            if _top_level_name(stmt) == "cycle_image_lattice" and (decorated or not isinstance(stmt, ast.FunctionDef)):
                out.append(f"{path.stem}.cycle_image_lattice")
    return out + [c for c in _callers(src, "cycle_image_lattice") if c.startswith("classify.") and c not in IMAGE_FINDERS]


def test_the_cycle_image_is_found_once_per_case_and_never_cached():
    # the verdicts read `case.image`, so no cache needs to hash a graph's Fraction vertices
    assert _images_found_again(SRC) == []


def test_the_image_guard_reports_a_cache_and_a_classification_that_finds_the_image_again(tmp_path):
    (tmp_path / "periodic_graphs.py").write_text(
        "@lru_cache(maxsize=128)\n"
        "def cycle_image_lattice(g):\n"
        "    return g.T0\n"
        "def lift_connected(g, T):\n"
        "    return cycle_image_lattice(g)\n",
        encoding="utf-8",
    )
    (tmp_path / "classify.py").write_text(
        "cycle_image_lattice = lru_cache(maxsize=None)(cycle_image_lattice)\n"
        "def _cases(G):\n"
        "    return cycle_image_lattice(G)\n"
        "def verify_claims():\n"
        "    return cycle_image_lattice(None)\n"
        "def _classify(G, case):\n"
        "    return cycle_image_lattice(case.graph)\n",
        encoding="utf-8",
    )
    assert _images_found_again(tmp_path) == ["classify.cycle_image_lattice", "periodic_graphs.cycle_image_lattice", "classify._classify"]


def _float_uses(src: Path) -> list[str]:
    """Places in the package that name `float` or read a `sqrt` attribute, as module:line."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Name) and node.id == "float") or (isinstance(node, ast.Attribute) and node.attr == "sqrt"):
                out.append(f"{path.stem}:{node.lineno}")
    return out


def test_the_package_computes_without_floats():
    # the tables are exact: every value is an int or a Fraction, and no float or square root enters
    assert _float_uses(SRC) == []


# the rational boundary: the presentations and T0 going in, the frame points,
# translations, covolumes, scales and join coming out; every other
# computation runs on integers
FRACTION_BUILDERS = {
    "lattices.as_fraction",
    "lattices.SubgroupHNF",
    "lattices.covolume",
    "lattices.from_numerators",
    "periodic_graphs.edge_orbit_graph",
    "spacegroups.T_HALF",
    "spacegroups._PRESENTATIONS",
    "spacegroups._closure",
}


def test_only_the_rational_boundary_builds_fractions():
    assert sorted(set(_callers(SRC, "Fraction")) - FRACTION_BUILDERS) == []


def _unread_imports(src: Path) -> list[str]:
    """Names a module of the package imports and never reads, as module.name.

    A name counts as read where it is loaded as a bare name anywhere in the
    module, or listed in the module's `__all__`; `__future__` imports bind
    nothing, and `from .m import *` binds only `m.__all__`, which the package
    re-exports.
    """
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if alias.name != "*"
        ]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        out += [f"{path.stem}.{name}" for name in bound if name not in read]
    return out


def test_every_import_is_read():
    # a helper removed from a module must not leave its imports behind
    assert _unread_imports(SRC) == []


def _loaded_by_importing_the_package(modules: set[str]) -> str:
    """Which of `modules` `import torsym, torsym.cli` loads, printed as a sorted list.

    pytest loads many modules itself, so the import runs in a fresh interpreter, without site so
    that no startup hook of the environment loads any of them either.
    """
    probe = f"import sys, torsym, torsym.cli; print(sorted({modules!r} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True, env=env, timeout=60)
    return out.stdout.strip()


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # about 10 ms of every command's start went to these two
    assert _loaded_by_importing_the_package({"dataclasses", "inspect"}) == "[]"


def test_importing_the_package_loads_neither_threading_nor_bisect():
    # the survey is a plain function of its bound, so nothing in the package needs a lock or a sorted slice
    assert _loaded_by_importing_the_package({"threading", "bisect"}) == "[]"
