import gc
import weakref
from itertools import combinations
from math import comb

import pytest

from kneser_colorings.achromatic import achromatic_coloring
from kneser_colorings.colorings import coloring_from_json, verify_coloring
from kneser_colorings.errors import ForeignVertexError, ParameterDomainError
from kneser_colorings.geometry import DisjointnessGraph, build_dv, random_general_position
from kneser_colorings.kneser import (Graph, KneserGraph, MatchingGraph, bitset, build_kneser,
                                     lovasz_chromatic)
from kneser_colorings.pseudoachromatic import psi_lower_coloring

from conftest import (brute_kneser_edges, colex_subsets, frees_what_it_makes,
                      kneser_adjacent)


def _row_adjacent(g, u, v):
    """Whether u and v are adjacent by g's adjacency_bitsets() row of u."""
    return bool(g.adjacency_bitsets()[g.index(u)] >> g.index(v) & 1)


def test_petersen_shape():
    g = build_kneser(5, 2)
    assert g.vertex_count == 10
    assert g.edge_count() == 15 == len(brute_kneser_edges(5, 2))
    assert g.regular_degree == 3


def test_k42_is_perfect_matching():
    g = build_kneser(4, 2)
    assert g.vertex_count == 6
    assert g.edge_count() == 3 == len(brute_kneser_edges(4, 2))
    assert g.regular_degree == 1


def test_k32_edgeless_boundary_case():
    g = build_kneser(3, 2)
    assert g.vertex_count == 3
    assert list(g.edges()) == []


def test_adjacency_examples():
    g5, g6 = build_kneser(5, 2), build_kneser(6, 3)
    for g, u, v, want in ((g5, (1, 2), (3, 4), True), (g5, (1, 2), (2, 3), False),
                          (g6, (1, 2, 3), (4, 5, 6), True)):
        assert _row_adjacent(g, u, v) == kneser_adjacent(u, v) == want


def test_foreign_vertex_rejected():
    g = build_kneser(5, 2)
    with pytest.raises(ForeignVertexError):
        g.index((5, 6))
    with pytest.raises(ForeignVertexError):
        g.index((1, 2, 3))


def test_bad_parameters():
    with pytest.raises(ParameterDomainError):
        build_kneser(4, 0)
    with pytest.raises(ParameterDomainError):
        build_kneser(3, 4)


def test_colex_order_is_the_contract():
    g = build_kneser(5, 2)
    assert g.vertices[:6] == ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))
    assert g.index((3, 4)) == 5


def test_vertices_are_built_in_colex_order():
    for n in range(1, 12):
        for k in range(1, n + 1):
            g = KneserGraph(n, k)
            assert list(g.vertices) == colex_subsets(n, k), (n, k)
            assert [g.index(v) for v in g.vertices] == list(range(comb(n, k)))


@pytest.mark.parametrize("n", range(2, 13))
def test_degree_audit(n):
    for k in range(1, n // 2 + 1):
        g = build_kneser(n, k)
        want = comb(n - k, k)
        degs = [0] * g.vertex_count
        for i, j in g.edges():
            degs[i] += 1
            degs[j] += 1
        assert all(d == want for d in degs), (n, k)


@pytest.mark.parametrize("n,k", [(5, 2), (8, 2), (7, 3), (9, 4)])
def test_edges_are_the_disjoint_pairs_in_index_order(n, k):
    g = build_kneser(n, k)
    want = sorted(tuple(sorted((g.index(u), g.index(v)))) for u, v in brute_kneser_edges(n, k))
    assert list(g.edges()) == want
    bits = g.adjacency_bitsets()
    assert all((bits[i] >> j) & 1 and (bits[j] >> i) & 1 for i, j in want)
    assert sum(b.bit_count() for b in bits) == 2 * len(want)


@pytest.mark.parametrize("cls", [KneserGraph, MatchingGraph, DisjointnessGraph])
def test_each_host_graph_overrides_exactly_one_adjacency_method(cls):
    """Graph's adjacency_bitsets() and class_unions() each default to the
    other, so a graph overriding neither would recurse without end."""
    overridden = [name for name in ("adjacency_bitsets", "class_unions")
                  if getattr(cls, name) is not getattr(Graph, name)]
    assert len(overridden) == 1, overridden


def _scanned_stars(g):
    """The point stars by a pass over every vertex: the reference."""
    members = [[] for _ in range(g.n + 1)]
    for i, v in enumerate(g.vertices):
        for x in v:
            members[x].append(i)
    return tuple(map(bitset, members))


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 17) for k in range(1, n + 1)]
                         + [(20, 10)])
def test_stars_are_the_vertices_through_each_point(n, k):
    """The stars built from the colex rank agree with a scan of the vertices."""
    g = KneserGraph(n, k)
    assert g.stars == _scanned_stars(g)


def test_dv_stars_are_the_vertices_through_each_point():
    g = build_dv(random_general_position(12, seed=1), 2)
    assert g.stars == _scanned_stars(g)


@pytest.mark.parametrize("size", [0, 1, 9, 64, 1000])
def test_bitset_sets_exactly_the_given_indices(size):
    for count in (0, 1, 8, 9, size):
        indices = list(range(0, size, max(1, size // max(count, 1))))[:count]
        assert bitset(indices) == sum(1 << i for i in indices)
        assert bitset(indices[::-1]) == bitset(indices)


@pytest.mark.parametrize("n", range(4, 11))
def test_k2_matches_line_graph_complement(n):
    """Adjacency in K(n,2) = edge-disjointness in K_n: every pair of rows of
    adjacency_bitsets() against the reference."""
    g = build_kneser(n, 2)
    edges_kn = list(combinations(range(1, n + 1), 2))
    for u, v in combinations(edges_kn, 2):
        assert _row_adjacent(g, u, v) == _row_adjacent(g, v, u) == kneser_adjacent(u, v)


def test_lovasz_formula():
    assert lovasz_chromatic(5, 2) == 3
    assert lovasz_chromatic(6, 3) == 2
    for k in range(1, 8):
        assert lovasz_chromatic(2 * k, k) == 2
    assert lovasz_chromatic(3, 2) == 1  # edgeless boundary
    with pytest.raises(ParameterDomainError):
        lovasz_chromatic(2, 2)
    with pytest.raises(ParameterDomainError):
        lovasz_chromatic(5, 0)


def test_exports():
    g = build_kneser(4, 2)
    dot = "".join(g.dot_lines())
    assert '"{1,2}"' in dot and "v0 -- " in dot or "v0 --" in dot
    assert dot.count("--") == 3
    import json
    doc = json.loads(g.vertices_json())
    assert doc["n"] == 4 and len(doc["vertices"]) == 6
    assert doc["vertices"][0] == [1, 2]


def test_graph_cache_returns_same_object():
    assert build_kneser(5, 2) is build_kneser(5, 2)


def test_released_graph_is_freed_by_reference_counting():
    # with the cycle collector off, only a reference cycle could keep it
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = build_kneser(9, 4)
        assert g.stars[1]  # the cached stars ride on the graph
        ref = weakref.ref(g)
        del g
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_held_graph_is_shared_by_every_call():
    g = build_kneser(8, 3)
    stars = g.stars
    assert build_kneser(8, 3) is g
    assert build_kneser(n=8, k=3) is g
    assert build_kneser(8, k=3).stars is stars


def test_sweeps_leave_no_graph_alive():
    with frees_what_it_makes(KneserGraph):
        for n in range(2, 181):
            achromatic_coloring(n)
        for n in range(7, 165):
            psi_lower_coloring(n)


def test_decoded_certificate_leaves_no_graph_alive():
    with frees_what_it_makes(KneserGraph):
        text = achromatic_coloring(11).to_json()
        report = verify_coloring(coloring_from_json(text))
        assert report.proper and report.complete
