"""Pinned SHA-256 digests of CLI outputs, so a refactor of the constructions
cannot change a byte of what they emit unnoticed.

The digests are of the files `cli.main` writes with --out.  If a change is
meant to alter one of these outputs, the new digest belongs in the same
change, with the reason.  The 1f-c4free digests at orders 10, 22 and 46 are
those of the doubling over Z_{t2/2} x {0,1}, which replaced a fixed K_10
table and the starter search at the orders t2 = 10 (mod 12).  The bounds
digest is that of the table whose odd-graph rows K(2k+1,k), k >= 3, give
alpha_lower = chi = 3 (alpha >= chi), not the b-chromatic 2.  Every KTS
order that the rotational starter search builds, 21 to 129, is pinned;
construct_kts is cached, so in one session these reuse the builds of
tests/test_designs.py.  The psi-lower digests cover every route of n mod 4,
and the verify digest is that of a report with a witness for every check.
"""
import hashlib
import json

import pytest

from kneser_colorings import cli

GOLDEN = {
    "design --type kts --n 15":
        "42f1300a0f7ca0f76f8ab30f6a18c28ee5953c0790e8613f9121d9160642dd8b",
    "design --type kts --n 21":
        "bd600744822b8c94d01e07d68ec18f8bba0507bbb90507c287c3ff863dad9ab0",
    "design --type kts --n 33":
        "d2b08118ff24168ebfb9206d091c8800bbd9d292e49bc8557eb06e2730d8bfb3",
    "design --type kts --n 39":
        "be31ce8ec5d9c76056dcce0d572425a1a19934469eda0929631c34813b167860",
    "design --type kts --n 45":
        "8c24c60f5511562d982040c6a332c970cd1961317deb287d9541ad57582c17dc",
    "design --type kts --n 51":
        "bfec3cc4b68155a59377ec0c4f58b51d0d563f156fde3c004083fba214022027",
    "design --type kts --n 57":
        "945ac97b667b102d552663ffc60dedbc9830645b3591949302abb1f07120db85",
    "design --type kts --n 69":
        "fcc53463b0c29e008695f9888db78d8f8acea53bf1e25ff964b276acd6aae6cc",
    "design --type kts --n 75":
        "1ba90142b8e87997f171e8deae929b1d8d0f688c429eadc4e964d69425c78984",
    "design --type kts --n 87":
        "41b9ffa7bd7675916e2ea9d4b5ad7772faffbf3706c1f7632d82d5ccfdfc6444",
    "design --type kts --n 93":
        "25bd9c271b76b890a3ca6c65557d2b7065cb5effa0a7b837b7f94fbc11995efe",
    "design --type kts --n 105":
        "dd1ebe0faf89963e4d6d151445f702af1c2efee2b7dc8c4ce86b25557601a26d",
    "design --type kts --n 111":
        "fe018497d215c5b828d262c4ecab3ee145e3aece6c84b0eeb761351388ff06ae",
    "design --type kts --n 123":
        "75ad487835a2c9aba393b516d456a49bb8569d2a0c68a8135c8390814fa85629",
    "design --type kts --n 129":
        "516e6a715eca39dfadb616bda57edef9c9696e23a25b8ff307d5e0bff02814bf",
    "design --type kts --n 135":
        "a67c6d6cd29361fb5a9ecb27a0add36502a14010b5a0f085625eb44261fff0f3",
    "design --type 1f --order 10":
        "c4dfdd3f25f8f4612822147db4dfc9c642bc234b4dc8c5c81c7edc783aab809f",
    "design --type 1f --order 16":
        "32e9c090d766b843314ce034a70b4baefba3e5e006c2310d08fcd5c2cdc9035a",
    "design --type 1f-c4free --order 10":
        "04f42f2b33608885ff652448f4c581b9b0670084c7a5aa6ee843e592965c1c3f",
    "design --type 1f-c4free --order 16":
        "1af0e912d86624c356ea8ec4893d6582edbf7a28494fb7e49cc9f8cef5e3a795",
    "design --type 1f-c4free --order 22":
        "16f9ce38878c425b1f653513167ec73bf92714f0418961e80405883b167af646",
    "design --type 1f-c4free --order 46":
        "7ce22d1401aff807299e5d0afab16469538d512108a85961106d6c333b64c2a7",
    "design --type 21-5-1":
        "7a30247be6839b21a1e32dce99c7b927ef911f8775322bbf8f5feb3b8ad3bfee",
    "construct --family kn2-psi-tight --n 20":
        "5d4c387daa6518920ae0d536d810870532596a05c3be2b68cdfc51a2febe3bc8",
    "construct --family kn2-psi-lower --n 7":
        "0e90a1c56fe66592a16b518cdf8bee4ce342c8cdb4a42b78fb4e4481034a33dc",
    "construct --family kn2-psi-lower --n 8":
        "87df67d32accd1424ffd42d866ec50ae5914bfa0226d0be8b30144b89fd2a55e",
    "construct --family kn2-psi-lower --n 9":
        "6120288123e46690c6a47940a42c20f7e84fafa3639bf0da7cce4bd0f9692063",
    "construct --family kn2-psi-lower --n 10":
        "489ddbfe0c0e7c622ef0c19949d65f208a0130aa37096f1d1f5c95999f846cee",
    "construct --family kn2-psi-lower --n 44":
        "5bab5c38ad4abe4c1438f4bc719cefb305630fb4bb2715f0f92a1bc98f3c8eaa",
    "construct --family matching --m 37":
        "1d8733a595f9c4db08974c9399c75b9250a7d5f780ff4a26a54064fabf5e4a3a",
    "construct --family kn2-achromatic --n 10":
        "5a8b693a7482b00fa75d269db9d97d84e75a49768e7fc05cd1f659d41bcf5c53",
    "construct --family kn2-achromatic --n 13":
        "6c7a9737075b66ae40231ac8706087a7b1434ec54e28cf7866945ca67f07022d",
    "construct --family kn2-achromatic --n 60":
        "b1d87187f7ed4a6d16015442be8c5eeef9c8838c21b79fecd72c2be704b6ffc9",
    "construct --family kn2-achromatic --n 62":
        "984c7ed895edda580e1787fcc3a4a399606fa5747e8488d8d2dd7eab2d68898c",
    "geom --op dv-coloring --layout convex --n 20":
        "8c3385b3b8f5033d210489f97da08873fef24a7590b9b13e3791bed01484a557",
    "geom --op dv-coloring --layout convex --n 22":
        "ed9a284c8119f39fb14e30e3280e4a312316af2166c9e5a223fa0d9b9cf48394",
    "geom --op dvnk --n 16 --k 3 --layout convex":
        "9036766d8d84eabaf8fb40b81c4bc77f50f783f400354c3dd0195a04ac09059a",
    "geom --op triangle-pairs --n 12 --layout convex":
        "d5fd04548f6b4e1345c9d7abf5b745cbdef782af34a514c77db522e2af4c17ca",
    "bounds --n-max 60 --k-max 5":
        "57a31be1db3c725a6d5569f76c3a37933202926a16e0b2c9f1c3e1aa2c62fcea",
    "export --format dot --n 10 --k 2":
        "9ba346693ab2ca9b07aab008567622364ee228d748fe48c13ac253bad22cdf31",
    "export --format json --n 10 --k 2":
        "94d2f5c9dad69d74f05175607afbf0ba68f5d2207c9d29a050f0b4bb94dcc34d",
}


@pytest.mark.parametrize("command", GOLDEN)
def test_cli_output_digest_is_pinned(command, tmp_path):
    out = tmp_path / "out"
    assert cli.main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[command]


TAMPERED_REPORT = "246fc82825cf92fc2b9f1e33e6491b893e0196df61236a89f1cbe11d9704f6d5"


def test_verify_report_on_a_tampered_certificate_is_pinned(tmp_path):
    """The construct --n 10 certificate of K(10,2) with the last member of
    class 1 moved into the last class and that of class 2 split off into a
    class of its own: the report names a witness for every check."""
    cert = tmp_path / "cert.json"
    assert cli.main(f"construct --family kn2-achromatic --n 10 --out {cert}".split()) == 0
    doc = json.loads(cert.read_text())
    classes = doc["classes"]
    classes[-1].append(classes[0].pop())
    classes.append([classes[1].pop()])
    cert.write_text(json.dumps(doc))
    out = tmp_path / "out"
    checks = "proper,complete,grundy,dominating,condition-c"
    assert cli.main(["verify", "--checks", checks, "--coloring", str(cert), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert set(report["witnesses"]) == {"proper", "complete", "grundy", "dominating"}
    assert report["condition_c"]["passes"] is False
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TAMPERED_REPORT


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_export_to_stdout_is_the_pinned_file(fmt, capsysbinary):
    command = f"export --format {fmt} --n 10 --k 2"
    assert cli.main(command.split()) == 0
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == GOLDEN[command]
