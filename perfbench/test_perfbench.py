"""Tests of the benchmark itself: each checker accepts the program's real output
and rejects corrupted copies of it.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import ast
import copy
import json
import os
import random
import subprocess
import sys
from itertools import combinations

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from kneser_colorings import cli  # noqa: E402


def _kneserc(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = cli.main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def _rejects(fn, *args, **kwargs):
    with pytest.raises(CheckFailed):
        fn(*args, **kwargs)


@pytest.mark.parametrize("module", ["checks.py", "inputs.py"])
def test_checkers_share_no_code_with_the_package(module):
    with open(os.path.join(HERE, module)) as fh:
        tree = ast.parse(fh.read())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [n for n in names if n.startswith("kneser_colorings")]


def test_kn2_checker_rejects_corrupted_colorings(tmp_path):
    n = 13
    code, doc = _kneserc(tmp_path, "construct", "--family", "kn2-achromatic", "--n", str(n))
    assert code == 0
    count = checks.alpha_kn2(n)
    checks.check_kn2_coloring(doc, n, count, proper=True)
    classes = doc["classes"]

    missing = copy.deepcopy(doc)
    missing["classes"][0].pop()
    _rejects(checks.check_kn2_coloring, missing, n, count, True)

    twice = copy.deepcopy(doc)
    twice["classes"][1].append(classes[0][0])
    _rejects(checks.check_kn2_coloring, twice, n, count, True)

    improper = copy.deepcopy(doc)
    big = next(i for i, c in enumerate(classes) if len(c) >= 2)
    u = improper["classes"][big].pop()
    dst = next(i for i, c in enumerate(classes) if i != big
               and any(not set(u) & set(v) for v in c))
    improper["classes"][dst].append(u)
    _rejects(checks.check_kn2_coloring, improper, n, count, True)

    split = copy.deepcopy(doc)
    split["classes"].append([split["classes"][big].pop()])
    _rejects(checks.check_kn2_coloring, split, n, count + 1, True)
    _rejects(checks.check_kn2_coloring, doc, n, count + 1, True)

    shuffled = copy.deepcopy(doc)
    random.Random(0).shuffle(shuffled["classes"])
    _rejects(checks.check_kn2_coloring, shuffled, n, count, True, size_ordered=True)

    code, doc = _kneserc(tmp_path, "construct", "--family", "kn2-achromatic", "--n", str(n),
                         "--grundy")
    checks.check_kn2_coloring(doc, n, count, proper=True, size_ordered=True)
    # size-ordered but not Grundy: no Grundy coloring has this count at n = 3 (mod 6)
    code, doc = _kneserc(tmp_path, "construct", "--family", "kn2-achromatic", "--n", "15",
                         "--grundy")
    checks.check_kn2_coloring(doc, 15, checks.alpha_kn2(15), proper=True)
    _rejects(checks.check_kn2_coloring, doc, 15, checks.alpha_kn2(15), True, size_ordered=True)


def _verify_case(tmp_path, name, seed=3):
    entry = next(e for e in inputs.VERIFY_SET if e[0] == name)
    cert = inputs.make_certificate(*entry, seed=seed)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, rep = _kneserc(tmp_path, "verify", "--coloring", str(path), "--checks",
                         "proper,complete,grundy,dominating,condition-c")
    return cert, rep, code, entry[3]


def _check_and_corrupt(cert, rep, code, tamper):
    checks.check_verify_report(cert, rep, code, tamper)
    _rejects(checks.check_verify_report, cert, rep, 1 - code, tamper)
    for check in ("proper", "complete", "grundy", "dominating"):
        bad = copy.deepcopy(rep)
        bad[check] = not rep[check]
        _rejects(checks.check_verify_report, cert, bad, code, tamper)
    for check, witness in rep["witnesses"].items():
        bad = copy.deepcopy(rep)
        # a witness of some other violation, or of none
        bad["witnesses"][check] = {"proper": [[1, 2], [3, 4]], "complete": [1, 2],
                                   "grundy": [[1, 2], 1], "dominating": 1}[check]
        if bad["witnesses"][check] != witness:
            _rejects(checks.check_verify_report, cert, bad, code, tamper)
    bad = copy.deepcopy(rep)
    bad["condition_c"]["centers"] = bad["condition_c"]["centers"][1:] + [1]
    _rejects(checks.check_verify_report, cert, bad, code, tamper)


@pytest.mark.parametrize("name", ["grundy-66", "tampered-proper-62", "tampered-grundy-61"])
def test_verify_checker_accepts_real_reports_and_rejects_corrupted_ones(tmp_path, name):
    _check_and_corrupt(*_verify_case(tmp_path, name))


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_condition_c_fails_when_singletons_share_a_point(tmp_path, seed):
    # the split-off vertex of tampered-complete-60 shares its points with
    # singleton classes, so condition (C) fails by its definition
    cert, rep, code, tamper = _verify_case(tmp_path, "tampered-complete-60", seed)
    col = checks.KN2Coloring(60, cert["classes"])
    assert checks.condition_c(col.classes)["singletons_share_a_point"]
    wrong = copy.deepcopy(rep)
    wrong["condition_c"]["passes"] = True
    with pytest.raises(CheckFailed) as exc:
        checks.check_verify_report(cert, wrong, code, tamper)
    assert str(exc.value) == workloads.KNOWN_FAULTS["tampered-complete-60"]
    right = copy.deepcopy(rep)
    right["condition_c"]["passes"] = False
    _check_and_corrupt(cert, right, code, tamper)


def test_only_the_named_fault_is_excused(tmp_path):
    cert, rep, code, tamper = _verify_case(tmp_path, "tampered-complete-60")
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(cert))
    op = {"id": "verify-x", "kind": "cli",
          "check": {"fn": "verify", "certificate": str(path), "tamper": tamper,
                    "known_fault": workloads.KNOWN_FAULTS["tampered-complete-60"]}}
    rec = {"error": None, "exit": code}

    def status(report):
        (tmp_path / "verify-x.json").write_text(json.dumps(report))
        return run.outcome(op, rec, str(tmp_path), 0).status

    rep["condition_c"]["passes"] = True
    assert status(rep) == "known fault"
    rep["condition_c"]["passes"] = False
    assert status(rep) == "ok"
    rep["color_count"] += 1
    assert status(rep) == "rejected"


def test_verify_inputs_are_seeded_and_fail_what_they_claim(tmp_path):
    for name, n, form, tamper in inputs.VERIFY_SET:
        a = inputs.make_certificate(name, n, form, tamper, 5)
        assert a == inputs.make_certificate(name, n, form, tamper, 5)
        assert a != inputs.make_certificate(name, n, form, tamper, 6)
        col = checks.KN2Coloring(n, a["classes"])
        verdicts = col.verdicts()
        if tamper:
            assert not verdicts[tamper]
        else:
            assert verdicts["proper"] and verdicts["complete"]
            assert col.count == checks.alpha_kn2(n)
            assert verdicts["grundy"] == (form == "grundy")
    made = inputs.write_inputs(5, str(tmp_path))
    assert [m[0] for m in made] == [e[0] for e in inputs.VERIFY_SET]


def test_base_certificates_are_optimal_colorings():
    for n in sorted({e[1] for e in inputs.VERIFY_SET}):
        checks.check_kn2_coloring(inputs.load_base(n), n, checks.alpha_kn2(n), proper=True)


def test_kts_checker(tmp_path):
    code, doc = _kneserc(tmp_path, "design", "--type", "kts", "--n", "15")
    checks.check_kts(doc, 15)
    bad = copy.deepcopy(doc)
    bad["blocks"][0] = [bad["blocks"][0][0], bad["blocks"][0][1], bad["blocks"][1][2]]
    _rejects(checks.check_kts, bad, 15)
    bad = copy.deepcopy(doc)
    bad["classes"][0][0], bad["classes"][1][0] = bad["classes"][1][0], bad["classes"][0][0]
    _rejects(checks.check_kts, bad, 15)
    _rejects(checks.check_kts, doc, 21)


def _crosses(a, b, c, d):
    o = checks.orient
    return o(a, b, c) != o(a, b, d) and o(c, d, a) != o(c, d, b)


def _inside(p, tri):
    s = {checks.orient(tri[i], tri[(i + 1) % 3], p) for i in range(3)}
    return len(s) == 1


def test_hull_predicate_matches_the_definition():
    rng = random.Random(1)
    seen = {True: 0, False: 0}
    for _ in range(3000):
        pts = [(rng.randrange(40), rng.randrange(40)) for _ in range(6)]
        if len(set(pts)) < 6 or any(checks.orient(*t) == 0 for t in combinations(pts, 3)):
            continue
        a, b = pts[:3], pts[3:]
        meet = (any(_crosses(p, q, r, s) for p, q in combinations(a, 2)
                    for r, s in combinations(b, 2))
                or any(_inside(p, b) for p in a) or any(_inside(p, a) for p in b))
        assert checks.hulls_disjoint(a, b) == (not meet)
        assert checks.hulls_disjoint(a[:2], b[:2]) == (not _crosses(*a[:2], *b[:2]))
        seen[not meet] += 1
    assert seen[True] and seen[False]


def test_dv_checker(tmp_path):
    code, doc = _kneserc(tmp_path, "geom", "--op", "dv-coloring", "--n", "9",
                         "--layout", "random", "--seed", "2")
    checks.check_dv_coloring(doc, 9, 2, 12, proper=True, convex=False)
    moved = copy.deepcopy(doc)
    moved["classes"][1].append(moved["classes"][0].pop())
    _rejects(checks.check_dv_coloring, moved, 9, 2, 12, True, False)
    collinear = copy.deepcopy(doc)
    collinear["points"][2] = [2 * collinear["points"][1][0] - collinear["points"][0][0],
                              2 * collinear["points"][1][1] - collinear["points"][0][1]]
    _rejects(checks.check_dv_coloring, collinear, 9, 2, 12, True, False)
    _rejects(checks.check_dv_coloring, doc, 9, 2, 12, True, True)

    code, doc = _kneserc(tmp_path, "geom", "--op", "dvnk", "--n", "8", "--k", "3",
                         "--layout", "random", "--seed", "2")
    checks.check_dv_coloring(doc, 8, 3, 4, proper=False, convex=False)
    merged = copy.deepcopy(doc)
    merged["classes"][0] += merged["classes"].pop()
    _rejects(checks.check_dv_coloring, merged, 8, 3, 4, False, False)
    # the crossing diagonals of a convex quadrilateral, each a class of its own
    quad = {"k": 2, "points": [[0, 0], [10, 1], [11, 10], [1, 9]],
            "classes": [[[1, 3]], [[2, 4]], [[1, 2], [2, 3], [3, 4], [1, 4]]]}
    _rejects(checks.check_dv_coloring, quad, 4, 2, 3, False, True)


def test_triangle_pair_checker(tmp_path):
    code, doc = _kneserc(tmp_path, "geom", "--op", "triangle-pairs", "--n", "7",
                         "--layout", "random", "--seed", "1")
    checks.check_triangle_pairs(doc, 7)
    _rejects(checks.check_triangle_pairs, dict(doc, pairs_checked=doc["pairs_checked"] - 1), 7)
    _rejects(checks.check_triangle_pairs, dict(doc, passes=False), 7)


def test_oracle_checks(tmp_path):
    adj = checks.kneser_adjacency(5, 2)
    code, doc = _kneserc(tmp_path, "oracle", "--param", "grundy", "--n", "5", "--k", "2")
    exact = checks.exact_value("grundy", 5, 2)
    checks.check_oracle_value("grundy", doc["value"], doc["nodes_explored"], adj, 0, exact=exact)
    _rejects(checks.check_oracle_value, "grundy", 5, doc["nodes_explored"], adj, 0, exact=exact)
    assert [checks.exact_value(p, 5, 2) for p in ("alpha", "chi")] == [5, 3]
    assert checks.exact_value("psi", 6, 3) == 5
    # no closed form: the value must lie between first-fit and Delta + 1
    adj62 = checks.kneser_adjacency(6, 2)
    checks.check_oracle_value("grundy", 7, 1, adj62, 0)
    _rejects(checks.check_oracle_value, "grundy", 8, 1, adj62, 0)
    _rejects(checks.check_oracle_value, "psi", 11, 1, adj62, 0)
    _rejects(checks.check_oracle_value, "psi", 7, 0, adj62, 0)


def test_layer_metrics_are_self_times():
    spans = [["cli", 0.0, 10.0, -1], ["achromatic", 1.0, 9.0, 0],
             ["colorings.verify", 2.0, 6.0, 1], ["designs.sts", 6.0, 7.0, 1]]
    m = tracing.layer_metrics(spans, {"kneser.edges": 5})
    assert m["cli.self_s"] == 2.0
    assert m["achromatic.self_s"] == 3.0
    assert m["colorings.verify_s"] == 4.0 and m["colorings.verify_calls"] == 1
    assert m["kneser.edges"] == 5 and m["oracle.psi_nodes"] == 0


def test_traced_worker_records_every_layer(tmp_path):
    ops = [{"id": "a", "kind": "cli", "argv": ["construct", "--family", "kn2-achromatic",
                                               "--n", "10", "--out", "{outdir}/a.json"]},
           {"id": "o", "kind": "oracle_dv", "param": "alpha", "layout": "random", "seed": 1,
            "n": 6}]
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"outdir": str(tmp_path), "ops": ops}))
    results = tmp_path / "r.jsonl"
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), str(manifest),
                    str(results), "0", "--trace"], cwd=ROOT, check=True, timeout=120)
    lines = [json.loads(line) for line in results.read_text().splitlines()]
    assert [r["id"] for r in lines[1:-1]] == ["a", "o"]
    assert all(r["error"] is None for r in lines[1:-1]) and lines[1]["exit"] == 0
    m = tracing.layer_metrics(lines[-1]["spans"], lines[-1]["counts"])
    assert m["kneser.edges"] == 45 * 28 // 2
    assert m["colorings.verify_calls"] == 1 and m["oracle.alpha_nodes"] == lines[2]["nodes"]
    for name in ("cli.self_s", "achromatic.self_s", "colorings.verify_s", "designs.sts_s",
                 "geometry.points_s", "geometry.adjacency_s", "oracle.search_s"):
        assert m[name] > 0, name
