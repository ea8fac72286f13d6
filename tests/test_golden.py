"""Every table and CLI output stays byte-identical: SHA-256 of the stdout of each command.

The digests were recorded from the CLI before the singular set was kept in
integers through the marked edges and quotient graphs.  A refactor that
changes any printed byte, including an ordering or a `Fraction` string, fails
here.  The survey digests pin `normal_translation_subgroups(G, 512)` itself,
order within each index included: each row is written as the JSON of its
lattice and family and its total index, so the digest does not depend on the
field names of the records.  The edge-orbit graphs of every singular orbit,
smoothed and raw, and the stdout of each demo are pinned the same way.
"""

import contextlib
import hashlib
import io
import json
import re
import runpy
from pathlib import Path

import pytest

from torsym import cli
from torsym.periodic_graphs import _singular_data, edge_orbit_graph
from torsym.spacegroups import GROUP_NAMES, make_group
from torsym.sublattices import normal_translation_subgroups

ROOT = Path(__file__).resolve().parents[1]

CENSUS = "e69f0c2bfb698e1bc1bac02414089e03ff890c2e3809728f3d7be7fc4385a618"

GOLDEN = (
    ("groups --format json", "7b41507432350b144dd8834508373c07525e0c1b53bdb92d03abebf707c82ae5"),
    ("singular-graph P432 --format json", "897d4e5ad26c531470ffa9016281e3701d48e19455fc5a433c200ce75aa62888"),
    ("edges P432 --format json", "9ff4d446b9113139def5043075f06559712f6bc808a6ac3dce925c08e2103187"),
    ("singular-graph F4_132 --format json", "fe0d202f53c9c7fbcd70023c0fafd04a9abece5ddff01adad8772ef24099ba0b"),
    ("edges F4_132 --format json", "200c8cbf5c4954ccce978196bc56dc02f1cb2d5e02da98bf887262b08771a1ec"),
    ("singular-graph I4_132 --format json", "fccc7994d209544e81229fa1af9e768f9f672dd41e6ffe2665da14ae36beada8"),
    ("edges I4_132 --format json", "4046374a653a82ec39779946d70c34702a7ecf6d3ad1c800dfc518a5d1f9fef9"),
    ("singular-graph I432 --format json", "f0797fabd6d4faa142deed19f91301fd3f56973e16c21c81f5c5bb63e9d06c68"),
    ("edges I432 --format json", "dd372c074f81246b5b696881e1b4f559344354037da5f74355f4ae66bc6a67db"),
    ("singular-graph P4_232 --format json", "d7addda870279985b88211b03d8264e8042973c7702f024142c49dd684397924"),
    ("edges P4_232 --format json", "7eaa7d0311276696df1c52c630219dc0d9deaa0c8b199b57206d1dcfda3c3ebf"),
    ("singular-graph P622 --format json", "6c6fff8538b8fd03e35861adcd4a787d356449b677fa3d415f3cfe7e396797df"),
    ("edges P622 --format json", "bc4553d02c337fe960c78a8a83f37376befd1bb77dcf17743c24fbc5d24936a2"),
    ("table --max-genus 101 --format json", CENSUS),
    ("verify --max-index 64", "eb3b47f498edb49387d2305b858a3a2b35d90c68beebfcd31c49f2a8784a2f09"),
    ("classify P432 alpha --max-index 512 --format json", "44c64c4ebe6bb00570bdb5e5aeb0d7a766ca6225e4fc199b3a779cff82965716"),
    ("classify F4_132 alpha --max-index 512 --format json", "4071ee89c53e18b7c93a124f86afc9dbf9520ac1c446359d71de15a5a00cc9a7"),
    ("classify I4_132 alpha --max-index 512 --format json", "1fbec6613adb8ebf40aeab60fb35a310c8b81532cb9547efc99885f1d2652c0b"),
    ("classify I432 beta --max-index 512 --format json", "d73998e09014ff9ee0f081de7d7159138725aed6c1bc03bea60254be914e57fa"),
    ("classify P4_232 beta --max-index 512 --format json", "c2748eb8ff6f5849a71e65da1579f56ba41e83e1d9dff4ac6bde749efdcbaa4a"),
    ("classify P4_232 gamma --max-index 512 --format json", "35cda788e33e97fd5ac9af0578dae38c00337af50dc44e422bd3f1000e6f21b7"),
    ("classify I432 gamma --max-index 512 --format json", "2bfd36415d9df82a7260c7b7827c79bf5c69a22407ae39ecbf9e6c2b337c32dd"),
    ("classify I4_132 beta --max-index 512 --format json", "8ba70c7386e768db27f05ffdeab9f935153c456d0143c5627afc001129235404"),
    ("classify P622 beta --max-index 512 --format json", "96347ee6d59ade09375727060f3cd102a7b61e1608a8c66b59b85f900987fa11"),
    # the text and CSV emitters, and the text forms of groups, singular graph and edges
    ("groups", "b2d8dfad67c18194c395848c39f56387062c5af829c1911cbbb2069c87358b95"),
    ("singular-graph P432", "334531784346dfe5a635ba765656ad668c02fa8fe92415d209b8a9c84efd929d"),
    ("singular-graph F4_132", "713e29b27f77888acc0d6faa16779b7cb0ada14b05e818d7999a9cfb2af608b1"),
    ("singular-graph I4_132", "4d724e6352c4108230124d3cb88037574b3bb8f4f2bc32d2e142fad731b376ca"),
    ("singular-graph I432", "456ea1e7fcb8fd70f1adde6c7cc0a7dc236c04396f17a604187fa59957b50d2b"),
    ("singular-graph P4_232", "922a03577d9ce1c09f9bc3da287f0263ecf3226d3dcc8bf5a3ef25e09f6b02c8"),
    ("singular-graph P622", "dfe8dd84b388ea77e19241c952448296ccc2c6b789ded7143b11e24a72e58751"),
    ("edges P432", "18cf6fd430a4df866d4c26b968c808a5e5a61ed5d71f140e5f30507b0185c381"),
    ("edges F4_132", "8df3485857348e34276244f0d25eed6c81dd55b657ff5c86d95ffacfc986f73d"),
    ("edges I4_132", "283a8c545f84f9135a1611d3d2576805c12989fb2cf385e32ca46d2a67ecdd9f"),
    ("edges I432", "a3bbbfd00f131778d43dd381f9bdf65218feabcefaca82c07642fc399e72d726"),
    ("edges P4_232", "02d4dd2fa764ca0cfe065d3f6e4bf9616cbc3b6e2d36889ca2842a5a538696f3"),
    ("edges P622", "4633b9f66883512b8348eff6abacd06abfbbf97abc80efc3918d6e18be06e70b"),
    ("table --max-genus 101", "81dcaac547879e994fd26f7200f66a3efb2407fde59c9871e8baf423430e6e72"),
    ("table --max-genus 101 --format csv", "9417c503817dd801c6e1783a6b432d9e6b1f583b3e2ce9aba1902e9f624d9e44"),
    ("classify P4_232 gamma --max-index 512", "0e65b8801bffacf27f14dd44d3faf4a2aa5c556a4d701093c32f2252add77505"),
    ("classify P622 beta --max-index 512 --format csv", "50e7267aba73a9a47d554cdbdc4e53f6ad97ea13f5af5a31c4d2df97a66d3abf"),
)

# SHA-256 of normal_translation_subgroups(G, 512) as JSON rows [lattice, family, total index];
# P432 and P4_232 share T0 and point group
SURVEY_512 = (
    ("P432", "505de248f46591cc5d5bef7043cf6d833a688bcb4c17e4bb9a792cca8fd4e416"),
    ("F4_132", "7c51266697743f698aa7bdc6d8abf6d438b33c0df8276a13a331cae3657d0d4f"),
    ("I4_132", "cb3e3243e9ca3b9d72580d66f274afe4d9edf4e824101cdbbdc745e3c5d6efb7"),
    ("I432", "f281508dafaa3149e68b1564fb65b9057ae4947eca5e20afdc7ac76129e806a7"),
    ("P4_232", "505de248f46591cc5d5bef7043cf6d833a688bcb4c17e4bb9a792cca8fd4e416"),
    ("P622", "f0c712314b7e3c4f3ffa38f7adced1c982f3d0dacbf64a92345d674d29f5ebfe"),
)

# SHA-256 of the JSON of edge_orbit_graph for every singular orbit of the six groups, smoothed and raw
ORBIT_GRAPHS = "cdbe26378f8da5abb14b2019a1ecbef8d4130f9ae80af6b165ddcdcbbb53865f"

DEMOS = (
    ("tour_of_groups.py", "65fcf9030da655ba11b136d0de5c64f91cc373d8ce366a00332223c7993212eb"),
    ("covering_lifts.py", "daea6543fe071d5662228db0bb6e7849bc23feee5d416fbbe0a067b44670d30d"),
    ("full_census.py", "e54bbfea146b5ce198c1a22790a1e249b47261b1dc186f038c87136e8f05e21d"),
)


def test_census_digest_is_the_benchmark_oracle_digest():
    oracle = (ROOT / "perfbench" / "oracle.py").read_text()
    assert re.search(r'CENSUS_SHA256 = "([0-9a-f]{64})"', oracle).group(1) == CENSUS


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_cli_output_is_byte_identical(command, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split())
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("name, digest", SURVEY_512, ids=[n for n, _ in SURVEY_512])
def test_survey_output_and_order_are_pinned(name, digest):
    out = normal_translation_subgroups(make_group(name), 512)
    text = json.dumps([[L.to_json(), fam.to_json(), pi1] for L, fam, pi1 in out])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_every_edge_orbit_graph_is_pinned():
    graphs = [
        edge_orbit_graph(make_group(name), e, suppress=s).to_json()
        for name in GROUP_NAMES
        for e in _singular_data(make_group(name)).edges
        for s in (True, False)
    ]
    assert len(graphs) == 84
    text = json.dumps(graphs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ORBIT_GRAPHS


@pytest.mark.parametrize("demo, digest", DEMOS, ids=[d for d, _ in DEMOS])
def test_demo_output_is_byte_identical(demo, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
