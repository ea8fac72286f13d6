"""The package's public surface: the exported names and the CLI's arguments, defaults and choices."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsym
from torsym import cli
from torsym.classify import EDGE_LABELS
from torsym.spacegroups import GROUP_NAMES

EXPORTS = [
    "CASES", "SCHEMA_VERSION", "ClassificationRow", "ClaimCheck", "GenusEntry", "Theorem1Cell", "VerificationReport",
    "classify_case", "labeled_marked_edges", "report_to_json", "report_to_text", "rows_to_csv", "rows_to_json",
    "rows_to_text", "table_to_csv", "table_to_json", "table_to_text", "theorem1_cells", "theorem1_table",
    "verify_claims", "verify_tables",
    "ClosureOverflow", "Disconnected", "InvariantViolation", "NotASubgroup", "RankDeficient", "TorsymError",
    "UnknownGroup", "UnmatchedLattice",
    "SubgroupHNF", "TRIVIAL_SUBGROUP", "covolume", "hnf", "index", "join", "member",
    "PeriodicGraph", "SingularEdge", "cycle_image_lattice", "edge_orbit_graph", "lift_connected",
    "lift_connected_bruteforce", "lift_genus", "marked_edges", "singular_graph", "suppress_valence_two",
    "GROUP_NAMES", "Isometry", "SpaceGroup", "canonical_group_name", "make_group", "stabilizer", "stabilizer_order",
    "FAMILY_TAGS", "LatticeFamily", "instantiate", "invariant_sublattices", "match_family",
    "normal_translation_subgroups",
]


def test_the_exported_names_are_pinned():
    # the same names in the same order: classify, errors, lattices, periodic_graphs, spacegroups, sublattices
    assert torsym.__all__ == EXPORTS


# each subcommand with only its required arguments, and the namespace it parses to, handler aside
DEFAULTS = {
    "groups": ([], {"format": "text"}),
    "singular-graph": (["P432"], {"group": "P432", "format": "text"}),
    "edges": (["P432"], {"group": "P432", "format": "text"}),
    "classify": (["P432", "alpha"], {"group": "P432", "edge": "alpha", "max_index": 64, "format": "text"}),
    "table": ([], {"max_genus": 65, "format": "text"}),
    "verify": ([], {"max_index": None, "format": "text"}),
}

FORMATS = {
    "groups": ("text", "json"),
    "singular-graph": ("text", "json"),
    "edges": ("text", "json"),
    "classify": ("text", "json", "csv"),
    "table": ("text", "json", "csv"),
    "verify": ("text", "json"),
}


@pytest.mark.parametrize("command", DEFAULTS)
def test_each_subcommand_parses_to_its_pinned_defaults(command):
    required, want = DEFAULTS[command]
    args = vars(cli.build_parser().parse_args([command, *required]))
    assert callable(args.pop("fn"))
    assert args == {"command": command, **want}


@pytest.mark.parametrize("command", FORMATS)
def test_each_subcommand_offers_its_pinned_formats(command, capsys):
    required, _ = DEFAULTS[command]
    parser = cli.build_parser()
    for fmt in ("text", "json", "csv"):
        if fmt in FORMATS[command]:
            assert parser.parse_args([command, *required, "--format", fmt]).format == fmt
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, *required, "--format", fmt])
            assert exc.value.code == 2
    capsys.readouterr()
    # and every format offered is answered: a choice without a renderer would end in a traceback
    for fmt in FORMATS[command]:
        assert cli.main([command, *required, "--format", fmt]) == 0
        out, err = capsys.readouterr()
        assert out.strip() and err == "", (command, fmt)


@pytest.mark.parametrize(
    "argv, argument",
    [
        (["edges", "P999"], "group"),
        (["classify", "P432", "delta"], "edge"),
        (["table", "--format", "xml"], "--format"),
        (["groups", "--format", "csv"], "--format"),
    ],
)
def test_an_unknown_group_edge_or_format_exits_two_without_a_traceback(argv, argument, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("usage: torsym ")
    assert err.splitlines()[-1].startswith(f"torsym {argv[0]}: error: argument {argument}: ")


ROOT = Path(__file__).resolve().parents[1]

# Bounds from -1 to 512, and from 10^23 (past the row limit of 10^6 for every survey, so refused with exit 2
# before any row is built) to 10^30.  The bounds 513 to 10^22 are left out: under the row limit they are
# answered, but not within a budget until the classification reads its accepted rows off the family table
# (`table --max-genus 456654` takes 136 s).
_BOUNDS = st.one_of(st.integers(-1, 512), st.integers(10**23, 10**30)).map(str) | st.sampled_from(["2.5", "1e3", "", "x"])
_GROUPS = st.sampled_from([*GROUP_NAMES, *(n.lower() for n in GROUP_NAMES), *(n.replace("_", "") for n in GROUP_NAMES), "P999"])


@st.composite
def _argv(draw) -> list[str]:
    """One command line: a subcommand or an unknown one, the positionals it takes, then maybe a bound and a format."""
    command = draw(st.sampled_from([*DEFAULTS, "frobnicate"]))
    argv = [command]
    if command in ("singular-graph", "edges", "classify"):
        argv.append(draw(_GROUPS))
    if command == "classify":
        argv.append(draw(st.sampled_from([*EDGE_LABELS, "delta"])))
    if draw(st.booleans()):
        argv += ["--max-genus" if command == "table" else "--max-index", draw(_BOUNDS)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json", "csv", "xml"]))]
    return argv


def _limit_memory():
    # in the child only: 2 GiB of address space
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@given(_argv())
@settings(max_examples=25)
def test_every_command_line_is_answered_or_refused_without_a_traceback(argv):
    # one child at a time, each a fresh interpreter under its own memory limit and a wall timeout
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    out = subprocess.run(
        [sys.executable, "-m", "torsym.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=_limit_memory,
    )
    assert out.returncode in (0, 2), (argv, out.returncode, out.stderr)
    assert "Traceback" not in out.stderr, (argv, out.stderr)
