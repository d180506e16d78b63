import json
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "kneser_colorings"]


def run(*args, inp=None):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, input=inp)


def test_construct_verify_round_trip(tmp_path):
    out = tmp_path / "c.json"
    r = run("construct", "--family", "kn2-achromatic", "--n", "13", "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert len(doc["classes"]) == 30
    r2 = run("verify", "--graph", "kneser", "--n", "13", "--k", "2",
             "--coloring", str(out), "--checks", "proper,complete,condition-c")
    assert r2.returncode == 0
    rep = json.loads(r2.stdout)
    assert rep["proper"] and rep["complete"] and rep["condition_c"]["passes"]


def test_grundy_flag_and_check(tmp_path):
    out = tmp_path / "g.json"
    assert run("construct", "--family", "kn2-achromatic", "--n", "12", "--grundy",
               "--out", str(out)).returncode == 0
    r = run("verify", "--coloring", str(out), "--checks", "proper,complete,grundy")
    assert r.returncode == 0
    assert json.loads(r.stdout)["grundy"] is True


def test_tampered_coloring_exits_1(tmp_path):
    out = tmp_path / "c.json"
    run("construct", "--family", "kn2-achromatic", "--n", "8", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["classes"][0][0], doc["classes"][-1][0] = doc["classes"][-1][0], doc["classes"][0][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    r = run("verify", "--coloring", str(bad), "--checks", "proper,complete")
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    assert rep["witnesses"]


def test_domain_error_exits_2():
    r = run("design", "--type", "sts", "--n", "6")
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert "1,3 (mod 6)" in err["message"]


def test_usage_error_exits_2():
    assert run("construct", "--family", "bogus").returncode == 2
    assert run().returncode == 2
    assert run("bounds", "--n-max", "5", "--threads", "2").returncode == 2  # no such flag


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run("construct", "--family", "kn2-psi-lower", "--n", "10",
            "--seed", "7", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_bounds_csv_rows():
    r = run("bounds", "--n-max", "10", "--k-max", "2")
    assert r.returncode == 0
    lines = r.stdout.strip().split("\n")
    assert len(lines) == 10  # header + 9 rows for n = 2..10


def test_oracle_json():
    r = run("oracle", "--param", "alpha", "--n", "5", "--k", "2")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["value"] == 5 and doc["n"] == 5 and doc["k"] == 2
    assert {"param", "nodes_explored", "seconds"} <= set(doc)


def test_psi_tight_cli():
    r = run("construct", "--family", "kn2-psi-tight", "--n", "20")
    assert r.returncode == 0
    assert len(json.loads(r.stdout)["classes"]) == 100


def test_matching_cli():
    r = run("construct", "--family", "matching", "--m", "10")
    assert r.returncode == 0
    assert len(json.loads(r.stdout)["classes"]) == 5


def test_design_construct_and_check(tmp_path):
    out = tmp_path / "sts9.json"
    assert run("design", "--type", "sts", "--n", "9", "--out", str(out)).returncode == 0
    r = run("design", "--check", str(out))
    assert r.returncode == 0
    assert json.loads(r.stdout)["passed"] is True
    doc = json.loads(out.read_text())
    doc["blocks"][0] = [1, 2, 4]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert run("design", "--check", str(broken)).returncode == 1
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"n": 7, "blocks": []}))
    r = run("design", "--check", str(empty))
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "ParameterDomainError"


def test_design_kts_and_factorizations():
    r = run("design", "--type", "kts", "--n", "9")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert len(doc["classes"]) == 4
    r = run("design", "--type", "1f-c4free", "--order", "10")
    assert r.returncode == 0
    assert len(json.loads(r.stdout)["factors"]) == 9


def test_export_formats():
    r = run("export", "--format", "dot", "--n", "4", "--k", "2")
    assert r.returncode == 0 and r.stdout.startswith('graph "K(4,2)"')
    r = run("export", "--format", "json", "--n", "4", "--k", "2")
    assert json.loads(r.stdout)["vertices"][0] == [1, 2]


def test_geom_ops():
    r = run("geom", "--op", "thrackle", "--n", "6", "--layout", "convex")
    assert json.loads(r.stdout)["thrackle_max_edges"] == 6
    r = run("geom", "--op", "dv-coloring", "--n", "8", "--layout", "convex")
    assert len(json.loads(r.stdout)["classes"]) == 12
    r = run("geom", "--op", "dvnk", "--n", "8", "--k", "2", "--layout", "convex")
    assert len(json.loads(r.stdout)["classes"]) == 6
    r = run("geom", "--op", "triangle-pairs", "--n", "6", "--layout", "random", "--seed", "1")
    assert r.returncode == 0 and json.loads(r.stdout)["passes"]


def test_verify_wrong_params_exits_2(tmp_path):
    out = tmp_path / "c.json"
    run("construct", "--family", "kn2-achromatic", "--n", "6", "--out", str(out))
    assert run("verify", "--coloring", str(out), "--n", "7").returncode == 2
    assert run("verify", "--coloring", str(tmp_path / "nope.json")).returncode == 2
    r = run("verify", "--coloring", str(out), "--checks", "proper,bogus")
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert err["error"] == "ParameterDomainError" and "bogus" in err["message"]


def test_oracle_size_cap_checked_before_building(monkeypatch, capsys):
    from kneser_colorings import cli

    def refuse(n, k):
        raise AssertionError(f"K({n},{k}) built before the size cap was checked")

    monkeypatch.setattr(cli, "build_kneser", refuse)
    assert cli.main(["oracle", "--param", "alpha", "--n", "200", "--k", "100"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SizeCapError"
    assert cli.main(["oracle", "--param", "chi", "--n", "8", "--k", "3", "--cap", "55"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SizeCapError"
    assert cli.main(["oracle", "--param", "grundy", "--n", "5", "--k", "2", "--cap", "0"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SizeCapError"
    assert cli.main(["oracle", "--param", "psi", "--n", "4", "--k", "5"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParameterDomainError"


@pytest.mark.parametrize("doc", [
    '{"classes": 5}',
    '[1, 2]',
    '{"n": 4, "k": 2, "classes": [[["x", "y"]]]}',
    '{"matching_size": -1, "classes": []}',
    '{"n": 0, "k": 2, "classes": []}',
    '{"n": 4, "k": 0, "classes": []}',
])
def test_malformed_certificate_exits_2(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    r = run("verify", "--coloring", str(path))
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "ParameterDomainError"


def test_condition_c_on_matching_exits_2(tmp_path):
    out = tmp_path / "m.json"
    assert run("construct", "--family", "matching", "--m", "10",
               "--out", str(out)).returncode == 0
    r = run("verify", "--coloring", str(out), "--checks", "proper,complete,condition-c")
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "ParameterDomainError"
