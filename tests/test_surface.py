"""The package's public surface: the exported names and the CLI's arguments, defaults and choices."""

import pytest

import torsym
from torsym import cli

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
