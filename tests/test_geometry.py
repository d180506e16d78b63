from itertools import combinations
from math import comb

import pytest

from kneser_colorings import geometry
from kneser_colorings.errors import ForeignVertexError, ParameterDomainError, SizeCapError
from kneser_colorings.geometry import (PointSet, build_dv, convex_position_points,
                                       dv_achromatic_coloring, dvnk_lower_coloring,
                                       orientation, random_convex_position,
                                       random_general_position, thrackle_max_edges,
                                       triangle_pair_check)
from kneser_colorings.kneser import build_kneser

from conftest import dv_adjacent, hulls_disjoint, kneser_adjacent


def test_orientation_examples():
    assert orientation((0, 0), (1, 0), (0, 1)) == 1
    assert orientation((0, 0), (1, 1), (2, 2)) == 0
    assert orientation((0, 0), (0, 1), (1, 0)) == -1


def test_segment_disjointness_examples():
    # the D_V reference decides k = 2 by the hull test: a two-point hull is its segment
    assert hulls_disjoint([(0, 0), (1, 0)], [(0, 1), (1, 1)])
    assert not hulls_disjoint([(0, 0), (2, 2)], [(0, 2), (2, 0)])  # crossing
    assert not hulls_disjoint([(0, 0), (1, 0)], [(1, 0), (2, 1)])  # shared end


def test_collinear_overlap_detected():
    assert not hulls_disjoint([(0, 0), (4, 0)], [(2, 0), (6, 0)])
    assert hulls_disjoint([(0, 0), (1, 0)], [(3, 0), (5, 0)])


def test_pointset_validation():
    with pytest.raises(ParameterDomainError):
        PointSet([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(ParameterDomainError):
        PointSet([(0, 0), (0, 0), (1, 2)])


def test_parabola_properties():
    for n in (3, 4, 10):
        ps = convex_position_points(n)
        assert ps.convex_position
        for a, b, c in combinations(range(len(ps)), 3):
            assert orientation(ps.coords[a], ps.coords[b], ps.coords[c]) != 0


def test_random_general_position_seeded():
    ps1 = random_general_position(7, seed=3)
    ps2 = random_general_position(7, seed=3)
    assert ps1.coords == ps2.coords


def test_dv_on_convex_quad():
    # 4 convex points: only the two opposite side pairs are disjoint
    g = build_dv(convex_position_points(4), 2)
    assert g.vertex_count == 6
    assert len(list(g.edges())) == 2


def test_dv_subgraph_of_kneser():
    for seed in range(5):
        ps = random_general_position(6, seed=seed)
        g = build_dv(ps, 2)
        for i, j in g.edges():
            assert kneser_adjacent(g.vertices[i], g.vertices[j])


def test_dv_edge_count_bounded():
    ps = random_general_position(5, seed=1)
    g = build_dv(ps, 2)
    assert len(list(g.edges())) <= 15


def test_dv_k3_consecutive_arcs():
    g = build_dv(convex_position_points(6), 3)
    assert g.adjacency_bitsets()[g.index((1, 2, 3))] >> g.index((4, 5, 6)) & 1


@pytest.mark.parametrize("v", [(0, 3), (1, 9), (1, 2, 3)])
def test_dv_index_rejects_foreign_vertices(v):
    g = build_dv(convex_position_points(6), 2)
    with pytest.raises(ForeignVertexError):
        g.index(v)


def test_left_masks_match_orientation():
    for ps in (random_general_position(9, seed=4), convex_position_points(7)):
        n = len(ps)
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                want = sum(1 << x for x in range(1, n + 1) if p != q and orientation(
                    ps.coord(p), ps.coord(q), ps.coord(x)) > 0)
                assert ps.left[p][q] == want


def _all_pairs_bitsets(g):
    """Neighbour bitsets from the per-pair hull test."""
    adjacent = dv_adjacent(g.ps)
    bits = [0] * g.vertex_count
    for (i, u), (j, v) in combinations(enumerate(g.vertices), 2):
        if adjacent(u, v):
            bits[i] |= 1 << j
            bits[j] |= 1 << i
    return bits


def _assert_kneser_subgraph(g, k):
    """D_V(n,k) has K(n,k)'s vertex model, a subset of its adjacency, and no
    K(n,k)-only count that disagrees with its own edges."""
    kg = build_kneser(g.n, k)
    assert g.vertices == kg.vertices and g.stars == kg.stars
    assert [g.index(v) for v in kg.vertices] == list(range(kg.vertex_count))
    with pytest.raises(ForeignVertexError):
        g.index((0,) * k)
    dv_rows = g.adjacency_bitsets()
    assert all(dv & ~kn == 0 for dv, kn in zip(dv_rows, kg.adjacency_bitsets()))
    edges = list(g.edges())
    assert len(edges) == sum(map(int.bit_count, dv_rows)) // 2
    if hasattr(g, "edge_count"):
        assert g.edge_count() == len(edges)
    if hasattr(g, "regular_degree"):
        assert all(row.bit_count() == g.regular_degree for row in dv_rows)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_tangent_adjacency_matches_all_pairs(k):
    layouts = [random_general_position(n, seed=seed)
               for seed in range(4) for n in range(2 * k, 11)]
    layouts += [random_general_position(n, seed=n) for n in (11, 12)]
    layouts += [convex_position_points(n) for n in (2 * k, 11, 12)]
    layouts += [random_convex_position(n, seed=n) for n in (2 * k + 1, 10, 12)]
    for ps in layouts:
        g = build_dv(ps, k)
        assert g.adjacency_bitsets() == _all_pairs_bitsets(g), (ps.coords, k)
        _assert_kneser_subgraph(g, k)


def test_tangent_adjacency_matches_all_pairs_benchmark_size():
    g = build_dv(random_general_position(16, seed=41), 3)
    assert g.adjacency_bitsets() == _all_pairs_bitsets(g)
    _assert_kneser_subgraph(g, 3)


def test_thrackle_convex_equals_n():
    for n in range(3, 8):
        assert thrackle_max_edges(convex_position_points(n)) == n
        assert thrackle_max_edges(random_convex_position(n, seed=n)) == n


def test_thrackle_upper_bound_random_sets():
    for seed in range(10):
        for n in range(3, 8):
            assert thrackle_max_edges(random_general_position(n, seed=seed)) <= n


def test_thrackle_strict_for_interior_point():
    """A triangle with an interior point draws K_4 without crossings, so the
    meeting graph is L(K_4): max thrackle 3 < 4.  Per-set equality in the
    thrackle theorem is a convex-position phenomenon."""
    ps = PointSet([(0, 0), (10, 0), (5, 9), (5, 3)])
    assert thrackle_max_edges(ps) == 3


def test_thrackle_cap():
    with pytest.raises(SizeCapError):
        thrackle_max_edges(convex_position_points(8))


def test_triangle_pairs_parabola_and_random():
    assert triangle_pair_check(convex_position_points(6)).passes
    for seed in range(10):
        rep = triangle_pair_check(random_general_position(7, seed=seed))
        assert rep.passes and rep.pairs_checked > 0


def test_triangle_pairs_cap():
    assert triangle_pair_check(convex_position_points(16)).passes
    with pytest.raises(SizeCapError):
        triangle_pair_check(convex_position_points(17))


@pytest.mark.parametrize("n", [5, 6, 9, 12])
def test_triangle_pairs_checks_every_pair_not_sharing_an_edge(n):
    """pairs_checked is C(T,2) less the C(n,2) C(n-2,2) pairs on a common edge."""
    rep = triangle_pair_check(random_general_position(n, seed=n))
    assert rep.pairs_checked == comb(comb(n, 3), 2) - comb(n, 2) * comb(n - 2, 2)
    assert rep.passes


def test_triangle_pairs_report_every_pair_without_disjoint_edges(monkeypatch):
    # with no disjoint segments at all, each checked pair is a counterexample
    monkeypatch.setattr(geometry.DisjointnessGraph, "adjacency_bitsets",
                        lambda self: [0] * self.vertex_count)
    rep = triangle_pair_check(convex_position_points(7))
    tris = combinations(range(1, 8), 3)
    want = [(s, t) for s, t in combinations(tris, 2) if len(set(s) & set(t)) <= 1]
    assert rep.counterexamples == want and rep.pairs_checked == len(want)


def test_triangle_pairs_skip_shared_edge():
    rep = triangle_pair_check(convex_position_points(4))
    # every pair of triangles on 4 points shares 2 points: nothing to check
    assert rep.pairs_checked == 0 and rep.passes


@pytest.mark.parametrize("n,classes", [(7, 7), (9, 12), (13, 26)])
def test_dv_coloring_odd_route(n, classes):
    c = dv_achromatic_coloring(random_general_position(n, seed=n))
    assert c.color_count == classes == comb(n, 2) // 3


@pytest.mark.parametrize("n,classes", [(8, 12), (12, 26), (14, 35)])
def test_dv_coloring_even_matching_route(n, classes):
    c = dv_achromatic_coloring(convex_position_points(n))
    assert c.color_count == classes == comb(n + 1, 2) // 3


@pytest.mark.parametrize("n", [10, 16, 46, 64])
def test_dv_coloring_even_packing_route(n):
    c = dv_achromatic_coloring(convex_position_points(n))
    assert c.color_count == (n * n + n - 8) // 6


def test_dv_coloring_domain_errors():
    with pytest.raises(ParameterDomainError):
        dv_achromatic_coloring(random_general_position(11, seed=0))  # 11 = 5 mod 6
    nonconvex = PointSet([(0, 0), (10, 0), (5, 9), (5, 3), (20, 5), (1, 17), (13, 40), (-7, 22)])
    assert not nonconvex.convex_position
    with pytest.raises(ParameterDomainError):
        dv_achromatic_coloring(nonconvex)


def test_dv_coloring_refuses_n_above_declared_range(monkeypatch):
    """n = 66 (0 mod 6) has a route, but lies above the declared 7..64: refused
    before D_V is built."""
    def no_build(*args):
        raise AssertionError("D_V built beyond the declared range")

    monkeypatch.setattr(geometry, "build_dv", no_build)
    with pytest.raises(ParameterDomainError, match="n <= 64, got 66"):
        dv_achromatic_coloring(convex_position_points(66))


def test_dv_coloring_sweep():
    """Every n in 7..64 that dv_achromatic_coloring supports builds and self-verifies."""
    for n in range(7, 65):
        if n % 2 and n % 6 in (1, 3):
            c = dv_achromatic_coloring(random_general_position(n, seed=n))
            assert c.color_count == comb(n, 2) // 3
        elif n % 6 in (0, 2):
            assert dv_achromatic_coloring(convex_position_points(n)).color_count == \
                comb(n + 1, 2) // 3
        elif n % 6 == 4:
            assert dv_achromatic_coloring(convex_position_points(n)).color_count == \
                (n * n + n - 8) // 6


def test_dvnk_sweep():
    """dvnk_lower_coloring builds and self-verifies on even n in 4..22, k = 2..min(4, n/2)."""
    for n in range(4, 23, 2):
        for ps in (random_general_position(n, seed=n), convex_position_points(n)):
            for k in range(2, min(4, n // 2) + 1):
                assert dvnk_lower_coloring(ps, k).color_count == comb(n // 2, k)


@pytest.mark.parametrize("n,k,classes", [(8, 2, 6), (6, 2, 3), (12, 3, 20)])
def test_dvnk_halving(n, k, classes):
    c = dvnk_lower_coloring(convex_position_points(n), k)
    assert c.color_count == classes == comb(n // 2, k)


def test_dvnk_needs_even_n():
    with pytest.raises(ParameterDomainError):
        dvnk_lower_coloring(convex_position_points(7), 2)


def test_affine_invariance():
    """Translating and positively scaling coordinates changes no predicate."""
    base = random_general_position(6, seed=9)
    moved = PointSet([(3 * x + 17, 3 * y - 5) for x, y in base.coords])
    g1, g2 = build_dv(base, 2), build_dv(moved, 2)
    assert list(g1.edges()) == list(g2.edges())
    assert thrackle_max_edges(base) == thrackle_max_edges(moved)
