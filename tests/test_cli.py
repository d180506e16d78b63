import json
import subprocess
import sys
from itertools import combinations

import pytest

from kneser_colorings.bounds import alpha_upper_kn2, improved_psi_bound
from kneser_colorings.errors import (CoverageError, ForeignVertexError, ParameterDomainError,
                                     ShapeError, SizeCapError)
from kneser_colorings.kneser import KneserGraph

from conftest import as_lists, frees_what_it_makes

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


def test_grundy_flag_certifies_once(tmp_path, monkeypatch):
    from kneser_colorings import cli, colorings

    calls = []

    def counted(coloring, checks=colorings.ALL_CHECKS, verify=colorings.verify_coloring):
        calls.append(sorted(checks))
        return verify(coloring, checks)

    monkeypatch.setattr(colorings, "verify_coloring", counted)
    out = tmp_path / "g.json"
    assert cli.main(["construct", "--family", "kn2-achromatic", "--n", "12", "--grundy",
                     "--out", str(out)]) == 0
    assert calls == [["complete", "grundy", "proper"]]


@pytest.mark.parametrize("n, witness", [(9, "((1, 4), 8)"), (10, "((1, 7), 10)")])
def test_grundy_flag_certifies_the_relabeling(tmp_path, n, witness):
    # n = 3, 4, 5 (mod 6): the size-ordered relabeling is not Grundy, and
    # construct says so instead of writing it
    out = tmp_path / "g.json"
    r = run("construct", "--family", "kn2-achromatic", "--n", str(n), "--grundy",
            "--out", str(out))
    assert r.returncode == 1 and not out.exists()
    err = json.loads(r.stderr)
    assert err["error"] == "CertificateError"
    assert f"failed grundy: {{'grundy': {witness}}}" in err["message"]


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
    # KTS beyond the rotational search's declared range is refused, not searched
    r = run("design", "--type", "kts", "--n", "2001")
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert err["error"] == "ParameterDomainError" and "KTS(2001)" in err["message"]
    # so is every other constructor beyond its declared range, before it allocates
    for args in (("construct", "--family", "kn2-achromatic", "--n", "20000"),
                 ("construct", "--family", "kn2-psi-lower", "--n", "20000"),
                 ("design", "--type", "sts", "--n", "20001"),
                 ("geom", "--op", "dvnk", "--n", "200", "--k", "3"),
                 ("construct", "--family", "matching", "--m", "3000000"),
                 ("geom", "--op", "dv-coloring", "--n", "100", "--layout", "convex"),
                 ("design", "--type", "1f", "--order", "20000"),
                 ("design", "--type", "1f-c4free", "--order", "302"),
                 ("export", "--format", "json", "--n", "60", "--k", "6"),
                 ("export", "--format", "dot", "--n", "60", "--k", "2")):
        r = run(*args)
        assert r.returncode == 2, args
        assert json.loads(r.stderr)["error"] == "ParameterDomainError", args


@pytest.mark.parametrize("exc", [ForeignVertexError, SizeCapError, CoverageError, ShapeError])
def test_domain_error_family_exits_2_under_its_own_name(exc, monkeypatch, capsys):
    from kneser_colorings import cli

    def fail(plan):
        raise exc("refused")

    assert issubclass(exc, ParameterDomainError)
    monkeypatch.setitem(cli._DISPATCH, "bounds", fail)
    assert cli.main(["bounds", "--n-max", "5"]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": exc.__name__, "message": "refused"}


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


@pytest.mark.parametrize("args", [("--n-max", "-5"), ("--n-max", "1"),
                                  ("--n-max", "5", "--k-max", "0")])
def test_bounds_refuses_ranges_below_two(args):
    r = run("bounds", *args)
    assert r.returncode == 2 and r.stdout == ""
    assert json.loads(r.stderr)["error"] == "ParameterDomainError"


def test_bounds_oversized_k_max_is_the_table_to_n_max_over_2():
    r = run("bounds", "--n-max", "4", "--k-max", "20000000")
    assert r.returncode == 0
    assert r.stdout == run("bounds", "--n-max", "4", "--k-max", "2").stdout
    r = run("bounds", "--n-max", "60", "--k-max", "1000000000")
    assert r.returncode == 0
    assert r.stdout == run("bounds", "--n-max", "60", "--k-max", "30").stdout


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # the argparse tree is built once per process; each call in one process
    # must behave as the same argv does in a fresh one
    from kneser_colorings import cli

    achromatic = ["construct", "--family", "kn2-achromatic"]
    geom = ["geom", "--op", "dv-coloring", "--n", "9", "--layout", "random"]
    argvs = [["construct", "--family", "bogus"], ["--help"],
             achromatic + ["--n", "12", "--grundy"], achromatic + ["--n", "12"],
             achromatic + ["--n", "9", "--grundy"], achromatic + ["--n", "9"],
             geom + ["--seed", "3"], geom]
    for i, argv in enumerate(argvs):
        mine, fresh = tmp_path / f"in-{i}.json", tmp_path / f"fresh-{i}.json"
        code = cli.main(argv + ["--out", str(mine)])
        r = run(*argv, "--out", str(fresh))
        assert code == r.returncode, argv
        assert mine.exists() == fresh.exists(), argv
        if mine.exists():
            assert mine.read_bytes() == fresh.read_bytes(), argv
    capsys.readouterr()
    assert [cli.main(a + ["--out", str(tmp_path / "x.json")]) for a in argvs] == \
        [2, 0, 0, 0, 1, 0, 0, 0]
    seeded, unseeded = (tmp_path / "in-6.json").read_text(), (tmp_path / "in-7.json").read_text()
    assert seeded != unseeded  # the seed reached the layout, and did not stick


def test_in_process_calls_leave_no_graph_alive(tmp_path, capsys):
    from kneser_colorings import cli

    cert = tmp_path / "c.json"
    with frees_what_it_makes(KneserGraph):
        assert cli.main(["construct", "--family", "kn2-achromatic", "--n", "12", "--grundy",
                         "--out", str(cert)]) == 0
        assert cli.main(["verify", "--coloring", str(cert),
                         "--checks", "proper,complete,grundy"]) == 0
        assert cli.main(["oracle", "--param", "alpha", "--n", "6", "--k", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [("design", "--type", "kts", "--n", "15"),
                                  ("design", "--type", "kts", "--n", "21"),
                                  ("design", "--type", "1f", "--order", "16"),
                                  ("design", "--type", "1f-c4free", "--order", "16"),
                                  ("design", "--type", "1f-c4free", "--order", "22")])
def test_design_documents_match_the_list_copy_encoding(tmp_path, argv):
    from kneser_colorings import cli, designs

    out = tmp_path / "d.json"
    assert cli.main(list(argv) + ["--out", str(out)]) == 0
    size = int(argv[-1])
    if argv[2] == "kts":
        res = designs.construct_kts(size)
        index = {blk: i for i, blk in enumerate(res.design.blocks)}
        doc = {"n": res.design.n, "blocks": as_lists(res.design.blocks),
               "classes": [[index[blk] for blk in cls] for cls in res.classes]}
    else:
        build = (designs.construct_one_factorization if argv[2] == "1f"
                 else designs.c4_free_one_factorization)
        res = build(size)
        doc = {"order": res.design.n, "factors": as_lists(res.classes)}
    assert out.read_text() == json.dumps(doc, sort_keys=True) + "\n"


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
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 10 ** 9, "blocks": [[1, 2, 3]]}))
    r = run("design", "--check", str(huge))
    assert r.returncode == 1
    assert json.loads(r.stdout)["failures"] == ["point 4 lies in no block"]


def test_design_check_pair_table_stays_as_small_as_the_blocks(tmp_path, capsys):
    # 50,000 disjoint pairs on 100,000 points (r = 1, lam = 0): a table of
    # all C(100000, 2) pairs would be a 5e9-entry list
    import tracemalloc

    from kneser_colorings import cli

    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"n": 100_000,
                                "blocks": [[p, p + 1] for p in range(1, 100_000, 2)]}))
    tracemalloc.start()
    try:
        assert cli.main(["design", "--check", str(path)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert failures == [f"pair ({p}, {p + 1}) covered 1 times, expected 0"
                        for p in range(1, 82, 2)] + ["... (truncated)"]


def test_design_kts_and_factorizations():
    r = run("design", "--type", "kts", "--n", "9")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert len(doc["classes"]) == 4
    r = run("design", "--type", "1f-c4free", "--order", "10")
    assert r.returncode == 0
    assert len(json.loads(r.stdout)["factors"]) == 9


def test_c4free_design_ignores_seed():
    outs = [run("design", "--type", "1f-c4free", "--order", "16", "--seed", seed)
            for seed in ("0", "5")]
    assert all(r.returncode == 0 for r in outs)
    assert outs[0].stdout == outs[1].stdout
    assert len(json.loads(outs[0].stdout)["factors"]) == 15


def test_c4free_design_refuses_search_order_above_46():
    r = run("design", "--type", "1f-c4free", "--order", "64")
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "ParameterDomainError"


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


def test_geom_refuses_n_above_point_cap_before_any_point(monkeypatch, capsys):
    from kneser_colorings import cli, geometry

    def refuse(*args):
        raise AssertionError("a point was sampled or scanned above the point cap")

    monkeypatch.setattr(geometry, "orientation", refuse)
    for layout in ("convex", "random", "random-convex"):
        assert cli.main(["geom", "--op", "dv-coloring", "--n", "400", "--layout", layout]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterDomainError" and "got 400" in err["message"]


def test_verify_refuses_a_dv_certificate_above_the_point_cap(monkeypatch, capsys, tmp_path):
    from kneser_colorings import cli, geometry

    def refuse(*args):
        raise AssertionError("a PointSet was built above the point cap")

    monkeypatch.setattr(geometry, "orientation", refuse)
    n = 600
    path = tmp_path / "dv600.json"
    path.write_text(json.dumps({"points": [[x, x * x] for x in range(n)], "k": 2,
                                "classes": [[list(p) for p in combinations(range(1, n + 1), 2)]]}))
    assert cli.main(["verify", "--coloring", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParameterDomainError" and "got 600" in err["message"]


def test_verify_refuses_a_certificate_above_the_bitset_footprint(monkeypatch, capsys, tmp_path):
    from kneser_colorings import cli, colorings

    def refuse(*args):
        raise AssertionError("a graph was built for an oversized certificate")

    monkeypatch.setattr(colorings, "build_kneser", refuse)
    path = tmp_path / "k600.json"  # every vertex of K(600,2) its own class
    path.write_text(json.dumps({"n": 600, "k": 2, "classes": [
        [list(p)] for p in combinations(range(1, 601), 2)]}))
    assert cli.main(["verify", "--coloring", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParameterDomainError" and "179700 classes" in err["message"]


def test_geom_triangle_pairs_cap_exits_2():
    r = run("geom", "--op", "triangle-pairs", "--n", "60")
    assert r.returncode == 2 and json.loads(r.stderr)["error"] == "SizeCapError"


# Certificates for values the bounds table leaves open.  psi(K(7,2)) = 11:
# a complete 12-coloring of 21 vertices has a singleton class, whose vertex
# (degree 10) cannot see 11 other classes.  alpha(K(7,3)) = psi(K(7,3)) = 11,
# the improved psi bound.  Gamma(K(9,2)) = 15 = alpha(K(9,2)), as a Grundy
# coloring is complete; its classes are listed in Grundy order.
_PSI_K72 = {"n": 7, "k": 2, "classes": [
    [[1, 4], [5, 7]], [[2, 5], [2, 7]], [[2, 4], [3, 4]], [[1, 2], [4, 5]], [[1, 3], [1, 7]],
    [[1, 5], [6, 7]], [[3, 6], [4, 6]], [[3, 5]], [[5, 6], [4, 7]], [[2, 3], [1, 6]],
    [[2, 6], [3, 7]]]}
_ALPHA_K73 = {"n": 7, "k": 3, "classes": [
    [[1, 2, 4], [2, 5, 6], [2, 3, 7], [1, 6, 7]], [[1, 3, 6], [3, 5, 6], [1, 5, 7], [4, 6, 7]],
    [[1, 2, 3], [2, 4, 5], [1, 5, 6]], [[1, 2, 5], [3, 4, 5], [2, 4, 7]],
    [[1, 2, 6], [2, 3, 6], [4, 5, 6]], [[1, 3, 4], [1, 2, 7], [1, 3, 7]],
    [[1, 3, 5], [1, 4, 5], [5, 6, 7]], [[1, 4, 6], [4, 5, 7], [2, 6, 7]],
    [[1, 4, 7], [2, 5, 7], [3, 6, 7]], [[2, 3, 4], [3, 4, 6], [3, 5, 7]],
    [[2, 3, 5], [2, 4, 6], [3, 4, 7]]]}
_GRUNDY_K92 = {"n": 9, "k": 2, "classes": [
    [[2, 4], [2, 7], [4, 7]], [[1, 2], [1, 3], [2, 3]], [[2, 5], [2, 6], [5, 6]],
    [[1, 4], [1, 9], [4, 9]], [[3, 4], [3, 5], [4, 5]], [[3, 6], [3, 7], [6, 7]],
    [[5, 7], [5, 8], [7, 8]], [[1, 7], [7, 9]], [[1, 5], [5, 9]], [[6, 8], [6, 9], [8, 9]],
    [[2, 8], [2, 9]], [[4, 6], [4, 8]], [[1, 8], [3, 8]], [[1, 6]], [[3, 9]]]}


@pytest.mark.parametrize("doc, checks, value", [
    (_PSI_K72, "complete", 11),
    (_ALPHA_K73, "proper,complete", improved_psi_bound(7, 3)),
    (_GRUNDY_K92, "proper,complete,grundy", alpha_upper_kn2(9)),
], ids=["psi-K72", "alpha-K73", "grundy-K92"])
def test_open_table_values_are_certified(doc, checks, value, tmp_path, capsys):
    from kneser_colorings import cli

    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--coloring", str(path), "--checks", checks]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["color_count"] == value
    assert all(rep[check] is True for check in checks.split(","))


def test_verify_wrong_params_exits_2(tmp_path):
    out = tmp_path / "c.json"
    run("construct", "--family", "kn2-achromatic", "--n", "6", "--out", str(out))
    assert run("verify", "--coloring", str(out), "--n", "7").returncode == 2
    assert run("verify", "--coloring", str(tmp_path / "nope.json")).returncode == 2
    r = run("verify", "--coloring", str(out), "--checks", "proper,bogus")
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert err["error"] == "ParameterDomainError" and "bogus" in err["message"]


def test_verify_cross_checks_n_and_k_on_every_certificate(tmp_path, capsys):
    from kneser_colorings import cli

    dv, matching = tmp_path / "dv.json", tmp_path / "matching.json"
    assert cli.main(["geom", "--op", "dv-coloring", "--n", "7", "--out", str(dv)]) == 0
    assert cli.main(["construct", "--family", "matching", "--m", "5", "--out", str(matching)]) == 0
    for path, flags, message in (
            (dv, ["--n", "9", "--k", "3"], "certificate has n=7, not 9"),
            (dv, ["--k", "3"], "certificate has k=2, not 3"),
            (matching, ["--n", "9", "--k", "3"], "--n does not apply to a matching certificate"),
            (matching, ["--k", "2"], "--k does not apply to a matching certificate")):
        assert cli.main(["verify", "--coloring", str(path), *flags]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "ParameterDomainError",
                                                       "message": message}
    assert cli.main(["verify", "--coloring", str(dv), "--graph", "dv", "--n", "7", "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["complete"] is True


@pytest.mark.parametrize("family", [["kn2-psi-lower", "--n", "8"], ["kn2-psi-tight", "--n", "8"],
                                    ["matching", "--m", "5"]])
def test_construct_grundy_outside_kn2_achromatic_exits_2(family, capsys):
    from kneser_colorings import cli

    assert cli.main(["construct", "--family", *family, "--grundy"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ParameterDomainError",
        "message": f"--grundy applies to kn2-achromatic only, not {family[0]}"}


def test_verify_empty_checks_exits_2(tmp_path, capsys):
    from kneser_colorings import cli

    good = tmp_path / "c.json"
    assert cli.main(["construct", "--family", "kn2-achromatic", "--n", "7",
                     "--out", str(good)]) == 0
    doc = json.loads(good.read_text())
    doc["classes"][:2] = [doc["classes"][0] + doc["classes"][1]]
    bad = tmp_path / "merged.json"
    bad.write_text(json.dumps(doc))
    for checks in ("", ",", " "):
        assert cli.main(["verify", "--coloring", str(bad), "--checks", checks]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterDomainError" and "names no check" in err["message"]
    assert cli.main(["verify", "--coloring", str(bad), "--checks", "proper"]) == 1
    capsys.readouterr()
    # condition-c alone means proper,complete,condition-c: all three gate the exit code
    assert cli.main(["verify", "--coloring", str(good), "--checks", "condition-c"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["proper"] and rep["complete"] and rep["condition_c"]["passes"]
    assert cli.main(["verify", "--coloring", str(bad), "--checks", "condition-c"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert not rep["proper"] and not rep["condition_c"]["passes"]


def test_verify_condition_c_alone_fails_improper(tmp_path, capsys):
    from kneser_colorings import cli

    good = tmp_path / "c.json"
    assert cli.main(["construct", "--family", "kn2-achromatic", "--n", "12",
                     "--out", str(good)]) == 0
    doc = json.loads(good.read_text())
    first, second = doc["classes"][:2]
    assert len(first) == len(second) == 3
    first[0], second[0] = second[0], first[0]
    bad = tmp_path / "swapped.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify", "--coloring", str(bad), "--checks", "condition-c"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert not rep["proper"] and rep["condition_c"]["passes"]


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


# a malformed document is JSON text, bytes that are not UTF-8, or None for a
# directory where the file should be
_MALFORMED_ERROR = {str: "ParameterDomainError", bytes: "UnicodeDecodeError",
                    type(None): "IsADirectoryError"}


def _malformed_file(path, doc):
    if doc is None:
        path.mkdir()
    elif isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(doc)
    return path


@pytest.mark.parametrize("doc", [
    '{"classes": 5}',
    '[1, 2]',
    '{"n": 4, "k": 2, "classes": [[["x", "y"]]]}',
    '{"matching_size": -1, "classes": []}',
    '{"n": 0, "k": 2, "classes": []}',
    '{"n": 4, "k": 0, "classes": []}',
    '{"points": [[1], [2, 3]], "k": 1, "classes": []}',
    '{"points": [[0, 0, 1], [2, 3]], "k": 1, "classes": []}',
    '{"n": 4, "k": 2}',
    '{"k": 2, "classes": [[[1, 2]]]}',
    '{"n": 4, "classes": [[[1, 2]]]}',
    pytest.param("[" * 100_000, id="nested-1e5-deep"),
    pytest.param(b'{"n": 4, "k": 2, "classes": [[[1, 2]]], "x": "\xff"}', id="not-utf-8"),
    pytest.param(None, id="directory"),
])
def test_malformed_certificate_exits_2(tmp_path, doc):
    path = _malformed_file(tmp_path / "bad.json", doc)
    r = run("verify", "--coloring", str(path))
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == _MALFORMED_ERROR[type(doc)]


def test_condition_c_on_matching_exits_2(tmp_path):
    out = tmp_path / "m.json"
    assert run("construct", "--family", "matching", "--m", "10",
               "--out", str(out)).returncode == 0
    r = run("verify", "--coloring", str(out), "--checks", "proper,complete,condition-c")
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "ParameterDomainError"


# each certificate has as many members as K(4,2), the matching or D_V(4) has
# vertices, so the check reaches the foreign one
@pytest.mark.parametrize("doc", [
    {"n": 4, "k": 2, "classes": [[[1, 2]], [[1, 3]], [[1, 4]], [[2, 3]], [[2, 4]], [[1, 5]]]},
    {"n": 4, "k": 2, "classes": [[[1, 2]], [[1, 3]], [[1, 4]], [[2, 3]], [[2, 4]], [[1, 2, 3]]]},
    {"matching_size": 2, "classes": [[1, 2], [3, 9]]},
    {"points": [[1, 1], [2, 4], [3, 9], [4, 16]], "k": 2,
     "classes": [[[1, 2], [3, 4]], [[1, 3]], [[1, 4]], [[2, 3]], [[2, 5]]]},
])
def test_foreign_vertex_exits_2(tmp_path, capsys, doc):
    from kneser_colorings import cli

    path = tmp_path / "foreign.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--coloring", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ForeignVertexError"


@pytest.mark.parametrize("doc", [
    '{"n": 7}',
    '{"n": 7, "blocks": 5}',
    '{"n": 7, "blocks": [[1, 2, "x"]]}',
    '[1, 2]',
    '{"n": "x", "blocks": [[1, 2, 3]]}',
    '{"n": 0, "blocks": [[1, 2, 3]]}',
    '{"n": 6, "blocks": [[]]}',
    '{"n": 1, "blocks": [[1]]}',
    pytest.param("[" * 100_000, id="nested-1e5-deep"),
    pytest.param(b'{"n": 3, "blocks": [[1, 2, 3]], "x": "\xff"}', id="not-utf-8"),
    pytest.param(None, id="directory"),
])
def test_design_check_malformed_exits_2(tmp_path, capsys, doc):
    from kneser_colorings import cli

    path = _malformed_file(tmp_path / "design.json", doc)
    assert cli.main(["design", "--check", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == _MALFORMED_ERROR[type(doc)]


def test_out_directory_exits_2(tmp_path, capsys):
    from kneser_colorings import cli

    for args in (("construct", "--family", "matching", "--m", "3"),
                 ("export", "--format", "dot", "--n", "5", "--k", "2")):
        assert cli.main([*args, "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "IsADirectoryError"


def test_verify_refuses_uncoverable_graph_before_building(tmp_path, monkeypatch, capsys):
    from kneser_colorings import cli, colorings, geometry

    def refuse(*args):
        raise AssertionError(f"graph built from {args} before its order was checked")

    monkeypatch.setattr(colorings, "build_kneser", refuse)
    monkeypatch.setattr(colorings, "MatchingGraph", refuse)
    monkeypatch.setattr(geometry, "PointSet", refuse)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 200, "k": 100, "classes": [[list(range(1, 101))]]}))
    assert cli.main(["verify", "--coloring", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CoverageError" and "cannot cover" in err["message"]
    path.write_text(json.dumps({"matching_size": 10 ** 12, "classes": [[1], [2]]}))
    assert cli.main(["verify", "--coloring", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "CoverageError"
    # collinear points, which PointSet would refuse, and 2 members for C(4,2) = 6 vertices
    path.write_text(json.dumps({"points": [[0, 0], [1, 1], [2, 2], [3, 3]], "k": 2,
                                "classes": [[[1, 2]], [[3, 4]]]}))
    assert cli.main(["verify", "--coloring", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CoverageError" and "6 vertices" in err["message"]


def _partitions(st, sizes, vertices, document):
    """Documents whose classes partition vertices(size) at random, members as lists."""
    def split(size):
        verts = [list(v) if isinstance(v, tuple) else v for v in vertices(size)]

        def classes(colors):  # colors[j] in 0..5 is the class of verts[j]; drop empty ones
            return [c for c in ([v for v, x in zip(verts, colors) if x == i] for i in range(6))
                    if c]

        return st.lists(st.integers(0, 5), min_size=len(verts), max_size=len(verts)).map(
            lambda colors: document(size, classes(colors)))

    return st.sampled_from(list(sizes)).flatmap(split)


def test_cli_fuzz_exit_codes(tmp_path_factory):
    """Random small certificates and design documents exit 0, 1 or 2, never raise."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from kneser_colorings import cli
    from kneser_colorings.geometry import convex_position_points

    label = st.integers(-3, 12)
    subset = st.lists(label, max_size=4)
    classes = st.lists(st.lists(subset, max_size=4), max_size=12)
    kneser = st.fixed_dictionaries({"n": st.integers(-1, 7), "k": st.integers(-1, 4),
                                    "classes": classes})
    matching = st.fixed_dictionaries({"matching_size": st.integers(-1, 6),
                                      "classes": st.lists(st.lists(label, max_size=4),
                                                          max_size=8)})
    dv = st.fixed_dictionaries({"points": st.lists(st.lists(label, max_size=3), max_size=7),
                                "k": st.integers(-1, 4), "classes": classes})
    # certificates that partition the vertices, so the checks themselves run
    covering = st.one_of(
        _partitions(st, [(n, k) for n in range(1, 7) for k in (1, 2, 3) if k <= n],
                    lambda nk: combinations(range(1, nk[0] + 1), nk[1]),
                    lambda nk, cls: {"n": nk[0], "k": nk[1], "classes": cls}),
        _partitions(st, range(1, 7), lambda m: range(1, 2 * m + 1),
                    lambda m, cls: {"matching_size": m, "classes": cls}),
        _partitions(st, range(4, 8), lambda n: combinations(range(1, n + 1), 2),
                    lambda n, cls: {"points": [list(p) for p in
                                               convex_position_points(n).coords],
                                    "k": 2, "classes": cls}))
    design = st.fixed_dictionaries({"n": st.integers(-1, 9),
                                    "blocks": st.lists(subset, max_size=8)})
    # loosely shaped documents reach the schema checks
    loose = st.recursive(
        st.none() | st.booleans() | label | st.text(max_size=2),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
            st.sampled_from(["n", "k", "classes", "points", "matching_size", "blocks"]),
            inner, max_size=4),
        max_leaves=12)
    checks = st.sampled_from(["proper,complete", "proper,complete,grundy,dominating",
                              "complete,condition-c"])
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hypothesis.given(doc=st.one_of(kneser, matching, dv, covering, design, loose),
                      checks=checks)
    def case(doc, checks):
        path.write_text(json.dumps(doc))
        argv = (["design", "--check", str(path)] if isinstance(doc, dict) and "blocks" in doc
                else ["verify", "--coloring", str(path), "--checks", checks])
        assert cli.main(argv) in (0, 1, 2)

    case()


def test_design_check_refuses_construction_flags(tmp_path, capsys):
    """--check reads the design from its file; --type, --n or --order beside it
    would read as a check of that type, so each is refused, not ignored."""
    from kneser_colorings import cli

    path = tmp_path / "kts9.json"
    assert cli.main(["design", "--type", "kts", "--n", "9", "--out", str(path)]) == 0
    assert cli.main(["design", "--check", str(path)]) == 0
    capsys.readouterr()
    for flags in (["--type", "kts", "--n", "9"], ["--type", "sts"], ["--n", "9"],
                  ["--order", "8"]):
        assert cli.main(["design", "--check", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ParameterDomainError",
            "message": "--type, --n and --order do not apply with --check"}


@pytest.mark.parametrize("op", ["dv-coloring", "thrackle", "triangle-pairs"])
def test_geom_k_outside_dvnk_exits_2(op, capsys):
    from kneser_colorings import cli

    assert cli.main(["geom", "--op", op, "--n", "7", "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ParameterDomainError",
                                        "message": f"--k applies to --op dvnk only, not {op}"}
