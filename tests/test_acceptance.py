"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Criterion 5
is expected to FAIL for n = 3,4,5 (mod 6): the size-ordered relabeling of
the optimal colorings is provably not a Grundy coloring there, and for
n = 4 (mod 6) no coloring attaining the maximum class count is
Grundy-orderable at all (see README).  The test asserts the criterion as
stated and reports honestly.
"""
import time
from math import comb

import pytest

from kneser_colorings.achromatic import achromatic_coloring, grundy_relabel
from kneser_colorings.bounds import (b_chromatic_lower, floor_half_plus_sqrt,
                                     improved_psi_bound, max_colors_for_pairs)
from kneser_colorings.colorings import Coloring, verify_coloring
from kneser_colorings.designs import (c4_free_one_factorization, c4_pair_count,
                                      construct_design_21_5_1, construct_kts,
                                      construct_sts, verify_design)
from kneser_colorings.geometry import (convex_position_points, dv_achromatic_coloring,
                                       dvnk_lower_coloring, random_convex_position,
                                       random_general_position, thrackle_max_edges,
                                       triangle_pair_check, build_dv)
from kneser_colorings.kneser import build_kneser, lovasz_chromatic
from kneser_colorings.oracle import (exact_achromatic, exact_chromatic,
                                     exact_pseudoachromatic)
from kneser_colorings.pseudoachromatic import (kneser_matching_coloring,
                                               psi_lower_coloring, psi_tight_coloring)


def _line(num, desc, failures, t0):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {status} ({time.time() - t0:.1f}s) {desc}")
    assert not failures, f"criterion {num}: {failures[:8]}"


def test_criterion_01_achromatic_reproduction():
    t0 = time.time()
    failures = []
    for n in range(2, 41):
        c = achromatic_coloring(n)
        want = 1 if n == 3 else comb(n + 1, 2) // 3
        rep = verify_coloring(Coloring(build_kneser(n, 2), c.classes),
                              checks={"proper", "complete"})
        if c.color_count != want or not (rep.proper and rep.complete):
            failures.append((n, c.color_count, want, rep.witnesses))
    _line(1, "alpha(K(n,2)) colorings, n = 2..40", failures, t0)


def test_criterion_02_small_oracle_equality():
    t0 = time.time()
    failures = []
    for n, want in [(2, 1), (3, 1), (4, 3), (5, 5), (6, 7)]:
        g = build_kneser(n, 2)
        a = exact_achromatic(g).value
        p = exact_pseudoachromatic(g).value
        if (a, p) != (want, want):
            failures.append((n, a, p, want))
    _line(2, "exact alpha = psi = (1,1,3,5,7) on K(n,2), n = 2..6", failures, t0)


def test_criterion_03_psi_lower_bound():
    t0 = time.time()
    failures = []
    for n in range(7, 41):
        c = psi_lower_coloring(n)
        want = comb(n, 2) // 2
        rep = verify_coloring(Coloring(build_kneser(n, 2), c.classes), checks={"complete"})
        if c.color_count != want or not rep.complete:
            failures.append((n, c.color_count, want))
    _line(3, "complete colorings with floor(C(n,2)/2) classes, n = 7..40", failures, t0)


def test_criterion_04_psi_tightness_at_20():
    t0 = time.time()
    failures = []
    c = psi_tight_coloring(20)
    rep = verify_coloring(Coloring(build_kneser(20, 2), c.classes), checks={"complete"})
    if c.color_count != 100 or not rep.complete:
        failures.append((c.color_count, rep.witnesses))
    _line(4, "psi(K(20,2)) = 100 certified", failures, t0)


def test_criterion_05_grundy_relabel():
    t0 = time.time()
    failures = []
    for n in (4, 5):
        c = grundy_relabel(achromatic_coloring(n))
        rep = verify_coloring(Coloring(build_kneser(n, 2), c.classes), checks={"grundy"})
        delta_plus_1 = build_kneser(n, 2).regular_degree + 1
        if rep.grundy or "grundy" not in rep.witnesses or c.color_count <= delta_plus_1:
            failures.append((n, "expected reported failure with Delta+1 witness"))
    for n in range(6, 41):
        c = grundy_relabel(achromatic_coloring(n))
        rep = verify_coloring(Coloring(build_kneser(n, 2), c.classes), checks={"grundy"})
        if not rep.grundy:
            failures.append((n, rep.witnesses.get("grundy")))
    _line(5, "grundy relabeling passes for 6 <= n <= 40 "
             "(fails for n = 3,4,5 mod 6: size-ordering cannot be Grundy there)",
          failures, t0)


def test_criterion_06_design_certificates():
    t0 = time.time()
    failures = []
    for n in range(7, 44):
        if n % 6 in (1, 3):
            if not verify_design(construct_sts(n)).passed:
                failures.append(("sts", n))
    for n in (9, 15, 21, 27, 33, 39):
        res = construct_kts(n)  # construction self-checks the resolution
        if len(res.classes) != (n - 1) // 2 or not verify_design(res.design).passed:
            failures.append(("kts", n))
    d = construct_design_21_5_1()
    if d.params() != (21, 21, 5, 5, 1) or not verify_design(d).passed:
        failures.append(("21-5-1", d.params()))
    for t2 in range(6, 41, 2):
        of = c4_free_one_factorization(t2)
        if c4_pair_count(of) != 0:
            failures.append(("c4free", t2))
    _line(6, "STS / KTS / (21,5,1) / 4-cycle-free factorization certificates", failures, t0)


def test_criterion_07_lovasz_formula():
    t0 = time.time()
    failures = []
    for n, k in [(4, 2), (5, 2), (6, 2), (7, 2), (6, 3), (7, 3)]:
        got = exact_chromatic(build_kneser(n, k), cap=36).value
        want = lovasz_chromatic(n, k)
        if got != want or want != n - 2 * (k - 1):
            failures.append(((n, k), got, want))
    _line(7, "exact chi = n - 2(k-1) on six Kneser instances", failures, t0)


def test_criterion_08_section6_bounds():
    t0 = time.time()
    failures = []
    imp = improved_psi_bound(5, 2)
    psi_petersen = exact_pseudoachromatic(build_kneser(5, 2)).value
    if imp != 5 or imp != psi_petersen:
        failures.append(("improved(5,2)", imp, psi_petersen))
    for n in range(2, 31):
        for k in range(1, n // 2 + 1):
            eq1 = floor_half_plus_sqrt(comb(n, k) * comb(n - k, k))
            if improved_psi_bound(n, k) > eq1 + 1:
                failures.append(("improved>eq1", n, k))
    # an alpha certificate with k >= 3 exists for K(6,3): the matching coloring
    alpha_cert_63 = kneser_matching_coloring(3).color_count
    if b_chromatic_lower(6, 3) > alpha_cert_63:
        failures.append(("b_chromatic(6,3)", b_chromatic_lower(6, 3), alpha_cert_63))
    _line(8, "improved psi bound and b-chromatic consistency", failures, t0)


def test_criterion_09_geometry():
    t0 = time.time()
    failures = []
    for n in range(3, 8):
        if thrackle_max_edges(convex_position_points(n)) != n:
            failures.append(("thrackle-parabola", n))
    # the thrackle bound holds on arbitrary general-position sets; per-set
    # equality is a convex-position property (interior points can kill it)
    seeds = 0
    for seed in range(20):
        for n in range(3, 8):
            if thrackle_max_edges(random_general_position(n, seed=seed)) > n:
                failures.append(("thrackle-bound", n, seed))
            if thrackle_max_edges(random_convex_position(n, seed=seed)) != n:
                failures.append(("thrackle-convex", n, seed))
            seeds += 2
    assert seeds == 200
    for seed in range(1000):
        n = 6 + seed % 3
        rep = triangle_pair_check(random_general_position(n, seed=seed))
        if not rep.passes:
            failures.append(("triangle-pair", n, seed, rep.counterexamples[:1]))
    for n in (7, 9, 13, 15):
        c = dv_achromatic_coloring(random_general_position(n, seed=n))
        if c.color_count != comb(n, 2) // 3:
            failures.append(("dv-odd", n))
    for n in (8, 12, 14):
        c = dv_achromatic_coloring(convex_position_points(n))
        if c.color_count != comb(n + 1, 2) // 3:
            failures.append(("dv-even", n))
    for n in (10, 16):
        c = dv_achromatic_coloring(convex_position_points(n))
        if c.color_count != (n * n + n - 8) // 6:
            failures.append(("dv-even4", n))
    for n, k in ((8, 2), (12, 3)):
        c = dvnk_lower_coloring(convex_position_points(n), k)
        rep = verify_coloring(Coloring(build_dv(convex_position_points(n), k), c.classes),
                              checks={"complete"})
        if c.color_count != comb(n // 2, k) or not rep.complete:
            failures.append(("dvnk", n, k))
    _line(9, "thrackles, triangle pairs, D_V colorings", failures, t0)


def test_criterion_10_matching_colorings():
    t0 = time.time()
    failures = []
    for k, want in ((2, 3), (3, 5)):
        g = build_kneser(2 * k, k)
        c = kneser_matching_coloring(k)
        rep = verify_coloring(Coloring(g, c.classes), checks={"proper", "complete"})
        formula = max_colors_for_pairs(comb(2 * k, k) // 2)
        if not (rep.proper and rep.complete) or c.color_count != want or formula != want:
            failures.append((k, c.color_count, formula))
    g = build_kneser(4, 2)
    a = exact_achromatic(g).value
    p = exact_pseudoachromatic(g).value
    if not (a == p == 3):
        failures.append(("oracle-k2", a, p))
    _line(10, "alpha = psi on K(2k,k) via matching colorings, k = 2,3", failures, t0)
