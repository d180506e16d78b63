from itertools import combinations
from math import comb

import pytest

from kneser_colorings import designs
from kneser_colorings.designs import (Design, Resolution, c4_free_one_factorization,
                                      c4_pair_count, circle_factor, construct_design_21_5_1,
                                      construct_kts, construct_one_factorization, construct_sts,
                                      find_parallel_class, triangle_packing, verify_design)
from kneser_colorings.errors import (CertificateError, ParameterDomainError,
                                     SearchExhaustedError)

from conftest import brute_pair_cover, union_cycle_lengths


def test_sts7_is_fano():
    d = construct_sts(7)
    assert d.b == 7 and d.r == 3 and d.k == 3 and d.lam == 1
    cover = brute_pair_cover(d.blocks, 7)
    assert all(c == 1 for c in cover.values())


def test_sts9():
    d = construct_sts(9)
    assert d.b == 12 and d.r == 4


def test_sts_rejects_wrong_residue():
    for n in (5, 6, 8, 11, 2):
        with pytest.raises(ParameterDomainError):
            construct_sts(n)


# 997 and 999 top the declared range, one for each of the Skolem and Bose routes
@pytest.mark.parametrize("n", [n for n in range(7, 44) if n % 6 in (1, 3)] + [997, 999])
def test_sts_lambda_one_audit(n):
    d = construct_sts(n)
    assert d.b == n * (n - 1) // 6
    cover = brute_pair_cover(d.blocks, n)
    assert all(c == 1 for c in cover.values())
    assert d.n * d.r == d.b * d.k
    assert d.r * (d.k - 1) == d.lam * (d.n - 1)


@pytest.mark.parametrize("v", range(11, 204, 6))
def test_triangle_packing_leaves_its_4_cycle(v):
    """Every pair lies in at most one block; the pairs in none are exactly the
    4-cycle (0,0) (0,2) inf1 inf2 of the docstring."""
    m = (v - 2) // 3
    cover = brute_pair_cover(triangle_packing(v), v)
    assert max(cover.values()) == 1
    cycle = (1, 2 * m + 1, v - 1, v)
    assert {pq for pq, c in cover.items() if c == 0} == \
        {tuple(sorted((cycle[i], cycle[i - 1]))) for i in range(4)}


def test_triangle_packing_rejects_wrong_residue():
    for v in (-1, 4, 6, 7, 9, 1001):
        with pytest.raises(ParameterDomainError):
            triangle_packing(v)


def test_parallel_class_sts9():
    pc = find_parallel_class(construct_sts(9))
    assert pc is not None and len(pc) == 3
    assert sorted(p for blk in pc for p in blk) == list(range(1, 10))


def test_parallel_class_sts15():
    pc = find_parallel_class(construct_sts(15))
    assert pc is not None and len(pc) == 5
    assert sorted(p for blk in pc for p in blk) == list(range(1, 16))


def test_parallel_class_needs_divisibility():
    with pytest.raises(ParameterDomainError):
        find_parallel_class(construct_sts(7))


@pytest.mark.parametrize("n", [87, 99])
def test_parallel_class_large_bose(n):
    d = construct_sts(n)
    pc = find_parallel_class(d)
    assert set(pc) <= set(d.blocks)
    assert sorted(p for blk in pc for p in blk) == list(range(1, n + 1))


def test_parallel_class_checks_its_blocks():
    # swapping points 1 and 2 of the Bose STS(9) moves its transversal (1, 4, 7)
    swap = {1: 2, 2: 1}
    d = construct_sts(9)
    blocks = tuple(sorted(tuple(sorted(swap.get(p, p) for p in blk)) for blk in d.blocks))
    relabelled = Design(n=9, blocks=blocks, k=3, r=4, lam=1)
    assert verify_design(relabelled).passed
    with pytest.raises(CertificateError):
        find_parallel_class(relabelled)


@pytest.mark.parametrize("n", list(range(3, 70, 6)) + [75, 81, 87, 93, 105, 111, 117, 123,
                                                       129, 135])
def test_kirkman_resolutions(n):
    res = construct_kts(n)
    d = res.design
    assert len(res.classes) == (n - 1) // 2
    cover = brute_pair_cover(d.blocks, n)
    assert all(c == 1 for c in cover.values())
    seen = set()
    for cls in res.classes:
        pts = sorted(p for blk in cls for p in blk)
        assert pts == list(range(1, n + 1))
        assert not seen & set(cls)
        seen.update(cls)
    assert seen == set(d.blocks) and len(seen) == d.b


def test_kts_tripling_does_not_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("rotational search run for a tripled KTS")

    monkeypatch.setattr(designs, "_rotational_day_orbit", refuse)
    construct_kts.cache_clear()
    for n in (9, 27, 45, 81, 135):
        assert len(construct_kts(n).classes) == (n - 1) // 2


def test_kts15_is_a_collineation_orbit_without_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("exact cover run for KTS(15)")

    monkeypatch.setattr(designs, "exact_cover", refuse)
    construct_kts.cache_clear()
    res = construct_kts(15)
    assert len(res.classes) == 7
    assert all(a ^ b == c for a, b, c in res.design.blocks)  # the lines of PG(3,2)


def test_kts_search_budget_is_typed():
    with pytest.raises(SearchExhaustedError, match="budget of 10 ") as info:
        designs._rotational_kts_days(33, max_nodes=10)
    assert "stopped after 11 exact-cover nodes" in str(info.value)
    assert (info.value.nodes, info.value.budget) == (11, 10)


def test_kts_complete_search_without_starter_says_so(monkeypatch):
    monkeypatch.setattr(designs, "_ROTATIONAL_STARTERS", {})
    with pytest.raises(SearchExhaustedError, match="complete exact-cover search found no"):
        designs._rotational_kts_days(21)


def test_kts51_starter_search_order_is_pinned():
    """KTS(51)'s starter search takes exactly 83 exact-cover nodes."""
    assert designs._rotational_day_orbit(17, range(1, 9), range(2, 17, 2), max_nodes=83)
    with pytest.raises(SearchExhaustedError, match="83 nodes, over its budget of 82"):
        designs._rotational_day_orbit(17, range(1, 9), range(2, 17, 2), max_nodes=82)


def test_kts21_starter_search_order_is_pinned():
    """KTS(21)'s starter search, on the fixed-day starters for m = 7, takes
    exactly 132 exact-cover nodes."""
    starters = designs._ROTATIONAL_STARTERS[7]
    assert designs._rotational_day_orbit(7, *starters, max_nodes=132)
    with pytest.raises(SearchExhaustedError, match="132 nodes, over its budget of 131"):
        designs._rotational_day_orbit(7, *starters, max_nodes=131)


def _brute_rotational_rows(m, bs, cs):
    """Every triple i < j < k of points l*m + x, the point (x, l) of Z_m x
    {0,1,2}, whose three pairs lie in distinct translation orbits, none of
    which holds a pair of a fixed-day starter {(0,0), (b,1), (c,2)}.  The 3m
    such orbits are numbered pure before mixed, then by levels and by the
    least difference x2 - x1 from a lower point (0, l1) to (x2, l2)."""
    npts = 3 * m

    def orbit(p, q):
        return frozenset(frozenset((p - p % m + (p + t) % m, q - q % m + (q + t) % m))
                         for t in range(m))

    starter_pairs = {frozenset(e) for b, c in zip(bs, cs)
                     for e in combinations((0, m + b, 2 * m + c), 2)}
    available = [o for o in {orbit(p, q) for p, q in combinations(range(npts), 2)}
                 if not o & starter_pairs]
    assert len(available) == npts

    def key(o):
        l1, l2, d = min((min(e) // m, max(e) // m, max(e) % m) for e in o if min(e) % m == 0)
        return l1 != l2, l1, l2, d

    col = {e: c for c, o in enumerate(sorted(available, key=key)) for e in o}
    rows = []
    for i, j, k in combinations(range(npts), 3):
        orbs = [col.get(frozenset(e)) for e in ((i, j), (i, k), (j, k))]
        if None not in orbs and len(set(orbs)) == 3:
            rows.append((*orbs, npts + i, npts + j, npts + k))
    return rows


@pytest.mark.parametrize("m", [7, 11, 13, 17])
def test_rotational_rows_match_brute_force(m, monkeypatch):
    """The exact-cover rows that KTS(3m)'s starter search builds, on the
    starters _rotational_kts_days picks, are the brute-force rows in order."""
    seen = {}
    day_orbit, cover = designs._rotational_day_orbit, designs.exact_cover

    def spy_day_orbit(m, bs, cs, max_nodes):
        seen["starters"] = (bs, cs)
        return day_orbit(m, bs, cs, max_nodes)

    def spy_cover(ncols, rows, max_nodes=None):
        seen["rows"] = rows
        return cover(ncols, rows, max_nodes)

    monkeypatch.setattr(designs, "_rotational_day_orbit", spy_day_orbit)
    monkeypatch.setattr(designs, "exact_cover", spy_cover)
    designs._rotational_kts_days(3 * m)
    assert seen["rows"] == _brute_rotational_rows(m, *seen["starters"])


def test_kts_beyond_declared_range_refused_before_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("rotational search run beyond its declared range")

    monkeypatch.setattr(designs, "_rotational_day_orbit", refuse)
    for n in (141, 2001, 423):  # 423 = 9 (mod 18) triples down to 141
        with pytest.raises(ParameterDomainError, match=r"KTS\(141\)|KTS\(2001\)"):
            construct_kts(n)


def test_kts_rejects_wrong_residue():
    with pytest.raises(ParameterDomainError):
        construct_kts(13)


def test_projective_plane_design():
    d = construct_design_21_5_1()
    assert d.params() == (21, 21, 5, 5, 1)
    assert verify_design(d).passed
    # any two distinct blocks share exactly one point
    for b1, b2 in combinations(d.blocks, 2):
        assert len(set(b1) & set(b2)) == 1
    # every point in exactly 5 blocks
    for p in range(1, 22):
        assert sum(p in blk for blk in d.blocks) == 5


def test_one_factorization_shapes():
    of6 = construct_one_factorization(6)
    assert len(of6.classes) == 5 and all(len(f) == 3 for f in of6.classes)
    of8 = construct_one_factorization(8)
    assert len(of8.classes) == 7 and all(len(f) == 4 for f in of8.classes)
    with pytest.raises(ParameterDomainError):
        construct_one_factorization(5)


def test_two_factor_union_two_regular():
    of = construct_one_factorization(8)
    for f1, f2 in combinations(of.classes, 2):
        lens = union_cycle_lengths(f1, f2, 8)
        assert sum(lens) == 8
        assert all(ln % 2 == 0 and ln >= 4 for ln in lens)


def test_c4_free_small():
    # on 6 vertices the union of two 1-factors has to be a single 6-cycle
    of = c4_free_one_factorization(6)
    for f1, f2 in combinations(of.classes, 2):
        assert union_cycle_lengths(f1, f2, 6) == [6]


@pytest.mark.parametrize("t2", list(range(6, 47, 2)))
def test_c4_free_all_even_orders(t2):
    of = c4_free_one_factorization(t2)
    assert len(of.classes) == t2 - 1
    assert c4_pair_count(of) == 0
    edges = set()
    for fac in of.classes:
        assert sorted(v for e in fac for v in e) == list(range(1, t2 + 1))
        edges.update(fac)
    assert len(edges) == comb(t2, 2)
    for f1, f2 in combinations(of.classes, 2):
        assert all(ln % 2 == 0 and ln >= 6 for ln in union_cycle_lengths(f1, f2, t2))


def test_z9_has_no_c4_free_starter():
    # the complete search comes back empty, which is why K_10 takes the doubling
    assert designs._c4_free_starter(9) is None


def test_c4_free_starter_search_order_is_pinned(monkeypatch):
    # smallest unpaired a, unused d from largest to smallest, a + d before a - d
    monkeypatch.setattr(designs, "C4F_BUDGET", 69)
    assert designs._c4_free_starter(15) == [(1, 8), (2, 7), (3, 14), (4, 10), (5, 6),
                                            (9, 12), (11, 13)]
    monkeypatch.setattr(designs, "C4F_BUDGET", 68)
    with pytest.raises(SearchExhaustedError):
        designs._c4_free_starter(15)


def test_c4_free_search_budget_is_typed(monkeypatch):
    monkeypatch.setattr(designs, "C4F_BUDGET", 10)
    c4_free_one_factorization.cache_clear()
    with pytest.raises(SearchExhaustedError,
                       match="K_16: the starter search stopped after 11 nodes, "
                             "over its budget of 10") as info:
        c4_free_one_factorization(16)
    assert info.value.nodes == 11 and info.value.budget == 10


@pytest.mark.parametrize("t2", [52, 64])
def test_c4_free_search_orders_above_46_refused_before_search(monkeypatch, t2):
    def refuse(m):
        raise AssertionError("starter search run beyond its declared range")

    monkeypatch.setattr(designs, "_c4_free_starter", refuse)
    with pytest.raises(ParameterDomainError, match=f"K_{t2} needs the starter search"):
        c4_free_one_factorization(t2)


def test_doubling_builds_every_order_2_mod_4_up_to_the_cap_without_search(monkeypatch):
    def refuse(m):
        raise AssertionError("starter search run at an order the doubling serves")

    counts = {}

    def recorded(of):
        counts[of.design.n] = c4_pair_count(of)
        return counts[of.design.n]

    monkeypatch.setattr(designs, "_c4_free_starter", refuse)
    monkeypatch.setattr(designs, "c4_pair_count", recorded)
    c4_free_one_factorization.cache_clear()
    orders = range(6, designs.C4F_ORDER_CAP + 1, 4)
    assert {10, 22, 34, 46, 58, 70, designs.C4F_ORDER_CAP} <= set(orders)
    for t2 in orders:
        of = c4_free_one_factorization(t2)
        assert len(of.classes) == t2 - 1
    assert counts == {t2: 0 for t2 in orders}
    c4_free_one_factorization.cache_clear()


def test_doubled_factors_on_two_copies():
    # K_10: five factors each a vertical edge plus a circle factor of K_6 in
    # both copies, then four cross factors (x, 0) -- (x + k, 1)
    factors = list(designs._doubled_factors(10))
    assert factors[0] == [(1, 6), (2, 5), (3, 4), (7, 10), (8, 9)]
    assert factors[5] == [(1, 7), (2, 8), (3, 9), (4, 10), (5, 6)]
    assert len(factors) == 9


def test_c4_free_search_orders_build_through_the_search(monkeypatch):
    searched = []
    starter = designs._c4_free_starter

    def spy(m):
        searched.append(m)
        return starter(m)

    monkeypatch.setattr(designs, "_c4_free_starter", spy)
    c4_free_one_factorization.cache_clear()
    for t2 in (16, 28, 40):
        assert c4_pair_count(c4_free_one_factorization(t2)) == 0
    assert searched == [15, 27, 39]
    c4_free_one_factorization.cache_clear()


@pytest.mark.parametrize("t2", [designs.C4F_ORDER_CAP + 2, 214])
def test_c4_free_orders_above_the_cap_refused_before_building(monkeypatch, t2):
    def refuse(*args):
        raise AssertionError("a factor was built above the declared order")

    monkeypatch.setattr(designs, "circle_factor", refuse)
    with pytest.raises(ParameterDomainError, match=rf"6\.\.{designs.C4F_ORDER_CAP} .*, got {t2}"):
        c4_free_one_factorization(t2)


def test_one_factorization_above_the_cap_refused_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("a factor was built above the declared order")

    monkeypatch.setattr(designs, "circle_factor", refuse)
    t2 = designs.ONE_FACTOR_ORDER_CAP + 2
    with pytest.raises(ParameterDomainError, match=f"4..{t2 - 2}, got {t2}"):
        construct_one_factorization(t2)


def test_c4_pair_count_matches_cycle_walk():
    # circle factorizations (a C4 pair exactly when 3 | t2 - 1) and the same
    # factors with the points of half of them relabelled
    for t2 in range(4, 31, 2):
        of = construct_one_factorization(t2)
        factors = of.classes
        shift = {v: v % t2 + 1 for v in range(1, t2 + 1)}
        mixed = factors[: t2 // 2] + tuple(
            tuple(tuple(sorted((shift[a], shift[b]))) for a, b in fac)
            for fac in factors[t2 // 2:])
        for facs in (factors, mixed):
            walked = sum(1 for f1, f2 in combinations(facs, 2)
                         if 4 in union_cycle_lengths(f1, f2, t2))
            assert c4_pair_count(Resolution(of.design, facs)) == walked, t2


def test_c4_free_circle_order_above_46_still_builds():
    of = c4_free_one_factorization(48)
    assert len(of.classes) == 47 and c4_pair_count(of) == 0


def test_c4_free_rejects_k4():
    with pytest.raises(ParameterDomainError):
        c4_free_one_factorization(4)


@pytest.mark.parametrize("t2", [4, 6, 8, 10])
def test_circle_factor_lists_edges_in_k_order(t2):
    m = t2 - 1
    for i in range(m):
        fac = circle_factor(t2, i)
        assert fac[0] == (i + 1, t2)  # the infinity edge first
        for k, (a, b) in enumerate(fac[1:], start=1):
            assert {(b - a) % m, (a - b) % m} == {2 * k % m, -2 * k % m}
            assert (a - 1 + b - 1) % m == 2 * i % m  # symmetric about i
    factors = tuple(tuple(sorted(circle_factor(t2, i))) for i in range(m))
    assert construct_one_factorization(t2).classes == factors


def test_circle_method_c4_profile():
    """The circle method has a C4 pair exactly when 3 divides t2 - 1."""
    for t2 in range(6, 23, 2):
        of = construct_one_factorization(t2)
        has = c4_pair_count(of) > 0
        assert has == ((t2 - 1) % 3 == 0), t2


def test_verify_design_flags_tampering():
    d = construct_sts(7)
    blocks = list(d.blocks)
    bad = list(blocks[0])
    bad[0] = 5 if bad[0] != 5 else 6
    blocks[0] = tuple(sorted(set(bad)))
    rep = verify_design(Design(n=7, blocks=tuple(blocks), k=3, r=3, lam=1))
    assert not rep.passed
    assert not rep.pair_coverage_ok
    assert any("pair" in f for f in rep.failures)


def test_verify_design_passes_fano():
    assert verify_design(construct_sts(7)).passed


def test_verify_design_reports_a_repeated_block():
    blocks = construct_sts(7).blocks
    rep = verify_design(Design(n=7, blocks=tuple(sorted(blocks + (blocks[2],))), k=3, r=3,
                               lam=1))
    assert rep.as_dict() == {
        "params": [7, 8, 3, 3, 1], "block_sizes_ok": True, "replication_ok": False,
        "pair_coverage_ok": False, "equations_ok": False, "passed": False,
        "failures": ["point 1 lies in 4 blocks, expected 3",
                     "point 6 lies in 4 blocks, expected 3",
                     "point 7 lies in 4 blocks, expected 3",
                     "pair (1, 6) covered 2 times, expected 1",
                     "pair (1, 7) covered 2 times, expected 1",
                     "pair (6, 7) covered 2 times, expected 1",
                     "nr != bk: 7*3 != 8*3"]}


def test_verify_design_reports_a_foreign_point():
    # (1, 2, 4) becomes (1, 2, 9): its pairs through 9 count nowhere
    blocks = ((1, 2, 9),) + construct_sts(7).blocks[1:]
    rep = verify_design(Design(n=7, blocks=blocks, k=3, r=3, lam=1))
    assert rep.as_dict() == {
        "params": [7, 7, 3, 3, 1], "block_sizes_ok": False, "replication_ok": False,
        "pair_coverage_ok": False, "equations_ok": True, "passed": False,
        "failures": ["block (1, 2, 9) uses foreign point 9",
                     "point 4 lies in 2 blocks, expected 3",
                     "pair (1, 4) covered 0 times, expected 1",
                     "pair (2, 4) covered 0 times, expected 1"]}


def test_verify_design_walks_sparse_pairs_in_order():
    # four disjoint blocks on 12 points: 12 block pairs against C(12, 2) = 66,
    # so the pairs are counted sparsely; lam = 1 fails every uncounted pair,
    # lam = 0 every counted one
    blocks = ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12))
    rep = verify_design(Design(n=12, blocks=blocks, k=3, r=1, lam=1))
    uncovered = [pq for pq in combinations(range(1, 13), 2)
                 if not any(set(pq) <= set(blk) for blk in blocks)]
    assert rep.failures == ([f"pair {pq} covered 0 times, expected 1" for pq in uncovered[:41]]
                            + ["... (truncated)"])
    rep = verify_design(Design(n=12, blocks=blocks, k=3, r=1, lam=0))
    assert rep.failures == [f"pair {pq} covered 1 times, expected 0"
                            for blk in blocks for pq in combinations(blk, 2)] + [
                            "r(k-1) != lambda(n-1)"]


def test_resolution_check_wants_each_day_a_partition():
    # the six edges of K_4 pass as a 2-(4, 2, 1) design either way; only the
    # first grouping is three perfect matchings
    days = [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]
    assert designs._resolution_from_days(4, days).classes == tuple(days)
    regrouped = [((1, 2), (1, 3)), ((2, 4), (3, 4)), ((1, 4), (2, 3))]
    with pytest.raises(CertificateError, match="not a partition"):
        designs._resolution_from_days(4, regrouped)
