"""Every table and CLI output stays byte-identical: SHA-256 of the stdout of each command.

The digests were recorded from the CLI before the singular set was kept in
integers through the marked edges and quotient graphs.  A refactor that
changes any printed byte, including an ordering or a `Fraction` string, fails
here.  The survey digests pin `normal_translation_subgroups(G, 512)` itself,
order within each index included: each row is written as the JSON of its
lattice and family and its total index, so the digest does not depend on the
field names of the records.  The edge-orbit graphs of every singular orbit,
smoothed and raw, and the stdout of each demo, run in a fresh interpreter,
are pinned the same way.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import pickle
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

from torsym import cli, classify_case, instantiate, labeled_marked_edges, theorem1_cells, theorem1_table, verify_claims
from torsym.classify import THEOREM_1, _cases, _word
from torsym.periodic_graphs import _normalizer_solutions, _singular_data, edge_orbit_graph
from torsym.spacegroups import GROUP_NAMES, make_group
from torsym.sublattices import LatticeFamily, _family_table, _walked_rows, normal_translation_subgroups

from test_sublattices import _SCALED_RECORDS

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
    # the claims-only verify, without a bound: the bytes of a passing report, as with one
    ("verify", "eb3b47f498edb49387d2305b858a3a2b35d90c68beebfcd31c49f2a8784a2f09"),
    ("verify --format json", "3fb4d64e37e899ef229f8f72c032dd6b9a03f63c19a8478c90dd67957de7d24f"),
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

# SHA-256 of the repr of one instance of every record, recorded while the records were dataclasses:
# the field names, their order, the values and the repr without `SpaceGroup.maps` stay as they were,
# except `_Case`, re-recorded when its constraint words became exponents (`WORDED_CASE_REPRS`), and
# `_CaseClaim`, re-recorded when its families' census pair became claim-only (`UNCLAIMED_FORM_REPR`)
RECORD_REPRS = (
    ("Frame", "f2111879a75fd474c20faeb43b68cd60d90045d7d871806239edc4c458339b87"),
    ("SpaceGroup", "69f2b9ec1cfeca506e7ca812b92094c6e7b3d0a6519649b17478ade2bf3aff63"),
    ("Isometry", "f3a5168a49df6a419a401263170d0bcd7fccc3789ba0a636d8da18eb532c7445"),
    ("SubgroupHNF", "e0f99a772ee4ce1020496111fe65e0821a15b45d4ba0e600e2b0a985861dfbc2"),
    ("LatticeFamily", "1c13c6e3a84ecad626104980f1841f01defc6fac63d6d4b168f405e9766ec6c2"),
    ("SingularEdge", "6e9c7a93cc71bffb6da7b1c34d9669e3e691a7c9dd307dcabd0f01a0a47bebda"),
    ("PeriodicGraph", "f25c29e1b07784c261de9fd82e94d5af15579eeef0a80ae154b1ab08990b01fb"),
    ("ClassificationRow", "1bf65b8eb4d098f3e6956688b02644625c40caf3e496750cc2152fde91c9d322"),
    ("GenusEntry", "5ba15a1c66d196f1c56e1263fccbba84880e476c43811a9bd4e01d9e7b5e5716"),
    ("Theorem1Cell", "1d567b203b4753bca799bdf2d731b619f3f4e4b6104dd78f5ed2c20db2b0c226"),
    ("ClaimCheck", "ff3b4462b93a06a09bec04a2e57540eaf4d077035dce4358019e264a4e6f5dec"),
    ("VerificationReport", "3390a7214559dd333a2d7c630aa9b1b9edc0e2c2386ac9aacd030eccc6339540"),
    ("_CaseClaim", "94e75255da4f0a8c5a1cc0acb18c85c6bd7d8e6e720f7d1b63fc95fe9ff5c411"),
    ("_Case", "a9d14ae6b11d5cf99b117ecc246074a0ef40158dbda7289a0c86eea8b3526b87"),
    ("_SingularData", "62faa4f1e4222f7fee9f1b5f71f6be2dd75a6d931919758e1219897d1584a0dc"),
)

# SHA-256 of the repr of _singular_data(G), _normalizer_solutions(G) and _cases(G) per group: the internal
# records that the cold case layer builds and every table reads; `_cases` re-recorded with `_Case` above, while it
# returned the family multipliers beside the case map (`_multipliers_and_cases` rebuilds that pair)
CASE_LAYER_REPRS = (
    ("P432", "e4e79bab47b60fda1d629de17d50019cadff06389bbe83351e4cabc3e9bf22a3", "05c9b53e9bdae61583eac54cf4cf3e414f593ad0d5c1005553f22c392893d0f1", "90409a04e3b55b5dd2ff02cb0ce68d720e7f813f303d6470ed9c77db24b37068"),
    ("F4_132", "776bf6c697a659b21bdb0db4bc5c76bf8db84fefa8a401c8b9e115012d89731a", "8843237b169d59e9cf022a14430c396120451ec34f8bdc8ce77f793580e7bf6d", "a7b6718124c22a5f7c6e3d982d5f84136b6f12a51db7e0092b8592889e5036b4"),
    ("I4_132", "62faa4f1e4222f7fee9f1b5f71f6be2dd75a6d931919758e1219897d1584a0dc", "95891888c5b95575da5a5238b5e8cd5bba3c4d76a103986d2e22764dff16a67b", "2d7ec82001944f01f9e4e7bc5bee5710e2086732c43aa05a746c242c60dea8b4"),
    ("I432", "4e8b2a38b7133e40e574a57d317bafdecd0300e2992fc225164040ff83c2aac8", "be2b228c2ca5f11b5bfa1e016ebeee9aaa3e22b140551463e9a173dea51ca1f4", "22eb5b6a81bc43558044698557bb7f27c8c2e7a45889233c813c3f3f6a1887c1"),
    ("P4_232", "0f3c315c13445c938b77d940fa96fe8b237d49ddf8c17ff2f26adcd4d06e48fa", "d6f07e27393b330fa954a3c18b70ba6dcd8c7073be74dae3ee9b7bc95db4d5e5", "e4a29763b97d0cf0918d66768a2aeb92bc811507777caa9e891a34275b9779c5"),
    ("P622", "a3b7d573fc5d878faf50964a707ff8a5d201cbce44f76fa91e24c73e7109d7db", "45f9ac098f67e85b924d53ca0e919cdef993a7fd8dbf3b0dc7a1d244fa59f696", "5d4a0c0ed878eec921e19d7745e489a4f1c99cf62d537fa027a78269f372b332"),
)

# SHA-256 of the reprs above of `_Case` and of `_cases(G)` per group as they were recorded while each case held
# its constraint words in a field `constraints`: the records rebuilt that way, each exponent rendered to its word
_WordedCase = namedtuple("_Case", "edge graph image constraints")
WORDED_CASE_REPRS = (
    ("_Case", "1bd05e5550a306ad88a49a3c0f03abc7c9c53af443f7f7c646dd21e29c1a9aac"),
    ("P432", "9d03794bf72895272424260d88811152e2f1c7c358dded2a64eb431880f927cc"),
    ("F4_132", "6df8d971ff25cd069b5bdaccf07b87c80cfa246ae8780dc46a5317f9f7a70db8"),
    ("I4_132", "857577b3e222ec0d722e2957b10fc41ff795f136766aa494ba07f5703f901cee"),
    ("I432", "530ebd2559aa1d29fbd5a0066ca8dabbf8e427d70fe246e5200e62dc07bc28bf"),
    ("P4_232", "99e0116feb7acb30880dfe3e29e7d593b8236983d8623ac88188b550d9a9513a"),
    ("P622", "0796770980bbd8b39a5a778d49b01fe97735d6953b9ce1460f57de798a3d65ca"),
)

# SHA-256 of the repr above of `_CaseClaim` as it was recorded while each family's census pair was named
# `coefficient` and `exponent`: the claim rebuilt that way
_FormFamily = namedtuple("_ClaimedFamily", "tag claimed_constraint form coefficient exponent")
UNCLAIMED_FORM_REPR = "f1443e1f2ef8d2c20b91348a9519b91c0eea2021ba7c3d542bae2f4c395eca06"

# SHA-256 of the repr of normal_translation_subgroups(G, 256), records and all
SURVEY_256_REPRS = (
    ("P432", "4f5245ae98f3d0ffba6ab115e38ef223ea353e942db06c46027a7374f11709d1"),
    ("F4_132", "f51511193fe00f82f70f2ed2a9c828d5cefe6f01c75aa29e90cdd86c7a4a2a87"),
    ("I4_132", "77273ff16b0d92d33b2e95bfb564d74b709835777da3aa0d312beef0b90ab261"),
    ("I432", "432bebda3d56a94c8124ccc48506f12120eeccb6a7d605bf4d1d474c4fdc044b"),
    ("P4_232", "4f5245ae98f3d0ffba6ab115e38ef223ea353e942db06c46027a7374f11709d1"),
    ("P622", "827b42e21963dd96b03075382404df0632f04329fa0964c586ced0e9256f56f2"),
)

# SHA-256 of the repr of the second route's rows, _walked_rows(G, 2000) for the six groups and
# _walked_rows(R, 300) for the scaled records of test_sublattices, records, order and all
WALKED_REPRS = (
    ("P432", 2000, "d27d7c0af3112d159f5c6dc2a88d63da87e0659347337210fbba7663a30d81de"),
    ("F4_132", 2000, "1958ceea6fa5bbe175f9694ac79e4df25bb4d0a2355e9129285a6a5566bec8e5"),
    ("I4_132", 2000, "c31e7aea56e4600b45976f346ad8ae808363ca68a1bc68a0e2bcc4be75cdb648"),
    ("I432", 2000, "5e8547e914e95be2984f9011c4ab9d251cdaf389d231b025ae162bbe9dfc2651"),
    ("P4_232", 2000, "d27d7c0af3112d159f5c6dc2a88d63da87e0659347337210fbba7663a30d81de"),
    ("P622", 2000, "c093167533ca3ac70ffddb131c65cc4ee9a34741c784fc3dd0728f15979281d9"),
    ("P_2", 300, "dd99224493372d3d6c923314aa9c2a5729ccd62d9d4515d1bf94e4a3afc4c4a1"),
    ("F_3", 300, "e86ac788d04f21112154a0f2f55e1e402005dddd5ab1401412f7a960bdc5421f"),
    ("I_3", 300, "80537b6042822d8d83510a21c9f1e2edeef498d920f1c4f6cee030a4d7792fa9"),
    ("HP_1_2", 300, "eb7ec322742810532d23103aace9356265ef05b168305b08ca89ef28ba5c0f09"),
    ("HR_2_3", 300, "b521bb23526ea2884f4667aa25d378293d53ed49179817627a64c91608fd990f"),
)

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


def _record_instances() -> dict:
    G = make_group("I4_132")
    edge = labeled_marked_edges("I4_132")["beta"]
    report = verify_claims()
    return {
        "Frame": G.frame,
        "SpaceGroup": G,
        "Isometry": G.cosets[-1],
        "SubgroupHNF": instantiate("CUBIC_BODY", 3),
        "LatticeFamily": LatticeFamily("HEX_ROT", 2, 3),
        "SingularEdge": edge,
        "PeriodicGraph": edge_orbit_graph(G, edge),
        "ClassificationRow": classify_case("I4_132", "beta", 512)[0],
        "GenusEntry": theorem1_table(20)[0],
        "Theorem1Cell": theorem1_cells()[0],
        "ClaimCheck": report.checks[0],
        "VerificationReport": report,
        "_CaseClaim": THEOREM_1["P4_232", "beta"],
        "_Case": _cases(make_group("P4_232"))["gamma"],
        "_SingularData": _singular_data(G),
    }


def test_every_record_repr_is_pinned():
    reprs = {name: hashlib.sha256(repr(record).encode()).hexdigest() for name, record in _record_instances().items()}
    assert reprs == dict(RECORD_REPRS)


# the records built by `lattices.checked_record`, whose one `__reduce__` rebuilds them through their checks
CHECKED_RECORD_NAMES = ("Isometry", "SubgroupHNF", "LatticeFamily", "SingularEdge", "PeriodicGraph", "ClassificationRow")


def test_every_checked_record_round_trips_through_its_checks():
    records = _record_instances()
    checked = [name for name, record in records.items() if type(record).__reduce__ is not tuple.__reduce__]
    assert checked == list(CHECKED_RECORD_NAMES)
    for name in checked:
        record = records[name]
        copies = [copy.copy(record), copy.deepcopy(record)]
        copies += [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is type(record) and other == record and repr(other) == repr(record), name


def test_an_edited_pickle_is_refused_by_the_record_checks():
    # protocol 0 writes each int as I<digits>: a row's orbit id, then a basis pivot, edited in the bytes
    row = classify_case("P432", "alpha", 8)[0]
    data = pickle.dumps(row, 0)
    assert row.orbit_id == 2 and data.count(b"I2\n") == 1
    with pytest.raises(ValueError, match="^orbit_id must be the derived 2, got 7$"):
        pickle.loads(data.replace(b"I2\n", b"I7\n"))
    data = pickle.dumps(instantiate("CUBIC_PRIMITIVE", 1), 0)
    assert data.count(b"(I1\nI0\nI0\n") == 1
    with pytest.raises(ValueError, match="column HNF"):
        pickle.loads(data.replace(b"(I1\nI0\nI0\n", b"(I0\nI0\nI0\n"))


def _multipliers_and_cases(G) -> tuple[dict, dict]:
    """The pair `_cases(G)` was recorded as: each family's multiplier u off the family table, in its report order, and the case map."""
    return {tag: u for tag, (u, *_) in _family_table(G.T0, G.frame.name).items()}, _cases(G)


@pytest.mark.parametrize("name, singular, normalizer, cases", CASE_LAYER_REPRS, ids=[n for n, *_ in CASE_LAYER_REPRS])
def test_the_case_layer_records_are_pinned_by_repr(name, singular, normalizer, cases):
    G = make_group(name)
    reprs = [hashlib.sha256(repr(f(G)).encode()).hexdigest() for f in (_singular_data, _normalizer_solutions, _multipliers_and_cases)]
    assert reprs == [singular, normalizer, cases]


def _worded(case) -> _WordedCase:
    return _WordedCase(case.edge, case.graph, case.image, {tag: _word(e) for tag, e in case.exponents.items()})


@pytest.mark.parametrize("name, digest", WORDED_CASE_REPRS, ids=[n for n, _ in WORDED_CASE_REPRS])
def test_the_cases_render_to_the_records_of_constraint_words(name, digest):
    # the exponents carry exactly what the words did: rendered, each case repr is the one pinned before
    if name == "_Case":
        record = _worded(_cases(make_group("P4_232"))["gamma"])
    else:
        mults, cases = _multipliers_and_cases(make_group(name))
        record = (mults, {label: _worded(case) for label, case in cases.items()})
    assert hashlib.sha256(repr(record).encode()).hexdigest() == digest


def test_the_claim_renames_only_its_census_pair():
    claim = THEOREM_1["P4_232", "beta"]
    record = claim._replace(families=tuple(_FormFamily(*f) for f in claim.families))
    assert hashlib.sha256(repr(record).encode()).hexdigest() == UNCLAIMED_FORM_REPR


@pytest.mark.parametrize("name, digest", SURVEY_256_REPRS, ids=[n for n, _ in SURVEY_256_REPRS])
def test_survey_records_are_pinned_by_repr(name, digest):
    out = normal_translation_subgroups(make_group(name), 256)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == digest


@pytest.mark.parametrize("name, bound, digest", WALKED_REPRS, ids=[n for n, *_ in WALKED_REPRS])
def test_the_second_route_rows_are_pinned_by_repr(name, bound, digest):
    G = make_group(name) if name in GROUP_NAMES else next(R for R in _SCALED_RECORDS if R.name == name)
    assert hashlib.sha256(repr(_walked_rows(G, bound)).encode()).hexdigest() == digest


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_a_group_hashes_its_int_and_str_fields_only(name):
    # no Fraction is hashed, and every record-keyed cache keeps its keys
    G = make_group(name)
    assert hash(G) == hash((G.name, G.frame, G.T0, G.point_order))
    assert hash(G.T0) == hash((G.T0.basis, G.T0.den))


@pytest.mark.parametrize("demo, digest", DEMOS, ids=[d for d, _ in DEMOS])
def test_demo_output_is_byte_identical(demo, digest):
    # a fresh interpreter per demo, so every kernel cache starts empty as it does for a user: full_census.py
    # then asks P622's survey to index 16 and then to 19 from cold caches, which an in-process run after
    # other tests would find warm
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True, check=True, env=env, timeout=300)
    assert hashlib.sha256(out.stdout).hexdigest() == digest
