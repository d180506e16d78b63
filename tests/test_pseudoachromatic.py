import hashlib
import json
import tracemalloc
from math import comb

import pytest

from kneser_colorings import designs, pseudoachromatic
from kneser_colorings.bounds import max_colors_for_pairs
from kneser_colorings.colorings import Coloring, verify_coloring
from kneser_colorings.errors import ParameterDomainError
from kneser_colorings.kneser import build_kneser
from kneser_colorings.pseudoachromatic import (MatchingGraph, kneser_matching_coloring,
                                               matching_coloring, psi_lower_coloring,
                                               psi_tight_coloring)

from conftest import brute_complete, kneser_adjacent


@pytest.mark.parametrize("n,classes", [(7, 10), (8, 14), (9, 18)])
def test_lower_bound_class_counts(n, classes):
    c = psi_lower_coloring(n)
    assert c.color_count == classes == comb(n, 2) // 2


@pytest.mark.parametrize("n", range(7, 21))  # every residue mod 4; the t2 = 10, 16 orders
def test_lower_bound_complete_by_naive_scan(n, monkeypatch):
    # the circle method alone suffices: no 4-cycle-free search on this path
    def refuse(*args, **kwargs):
        raise AssertionError("psi lower coloring ran the 4-cycle-free search")

    monkeypatch.setattr(designs, "c4_free_one_factorization", refuse)
    monkeypatch.setattr(pseudoachromatic, "c4_free_one_factorization", refuse, raising=False)
    c = psi_lower_coloring(n)
    ok, witness = brute_complete(c.classes, kneser_adjacent)
    assert ok, witness


def test_lower_bound_rejects_small_n():
    with pytest.raises(ParameterDomainError):
        psi_lower_coloring(6)


def test_lower_bound_covers_all_vertices():
    # n = 52, 54 and 57 once needed 4-cycle-free factorizations of K_52 and K_58,
    # whose search runs out of budget
    for n in (*range(7, 65), 100, 120, 129, 164):  # 164 tops the declared range
        c = psi_lower_coloring(n)
        assert c.color_count == comb(n, 2) // 2
        verts = sorted(v for cls in c.classes for v in cls)
        assert len(verts) == comb(n, 2)
        assert verts == sorted(set(verts))


def test_tight_coloring_at_20():
    c = psi_tight_coloring(20)
    assert c.color_count == 100 == (comb(20, 2) + 10) // 2
    assert c.class_histogram() == {1: 10, 2: 90}
    rep = verify_coloring(Coloring(build_kneser(20, 2), c.classes), checks={"complete"})
    assert rep.complete


def test_tight_coloring_rejects_other_n():
    with pytest.raises(ParameterDomainError):
        psi_tight_coloring(19)


def test_tight_coloring_not_proper():
    # the five-block pattern's classes each hold two disjoint pairs
    rep = verify_coloring(Coloring(build_kneser(20, 2), psi_tight_coloring(20).classes),
                          checks={"proper"})
    assert not rep.proper


@pytest.mark.parametrize("m,colors", [(1, 2), (3, 3), (10, 5), (45, 10)])
def test_matching_color_counts(m, colors):
    c = matching_coloring(m)
    assert c.color_count == colors
    rep = verify_coloring(Coloring(MatchingGraph(m), c.classes), checks={"proper", "complete"})
    assert rep.proper and rep.complete


def test_matching_rejects_zero():
    with pytest.raises(ParameterDomainError):
        matching_coloring(0)


def test_matching_sweep():
    """matching_coloring builds and self-verifies for m in 1..300 and at 1,000,
    10,000 and its declared cap 100,000, and refuses m above the cap."""
    for m in (*range(1, 301), 1000, 10_000, 100_000):
        assert matching_coloring(m).color_count == max_colors_for_pairs(m), m
    with pytest.raises(ParameterDomainError, match="447 classes on 200002 vertices"):
        matching_coloring(100_001)


@pytest.mark.parametrize("k,colors", [(2, 3), (3, 5)])
def test_kneser_matching_colorings(k, colors):
    c = kneser_matching_coloring(k)
    g = build_kneser(2 * k, k)
    assert c.color_count == colors
    rep = verify_coloring(Coloring(g, c.classes), checks={"proper", "complete"})
    assert rep.proper and rep.complete


# SHA-256 of json.dumps(kneser_matching_coloring(k).classes), taken when
# K(2k,k) was still built before the cap was checked
TRANSPORTED = {
    1: "5dcadf000fcf69ded463fec091d37cd78061d9015b527d104e0e5155341e60e3",
    2: "bb01e85fb810d67ab521d25b83ede1cce46a031a11676c531fb14fc90e2b496d",
    3: "948741a9575de203ee8374b4a78bda6b2f9e61a78ef0d042da5e5aa154416e46",
    4: "929af9c24f8f98b023d1f40bec79e5de5635210e72de81f33396de897a86cc36",
    5: "b3f13d6d033263b7201303ed3e8fc01c242eb4230c45f6c4249e2d41f23333bc",
    6: "0105dfd930b84e0f6f5be6c892c61db9407d9cf6526bff06a6bb7c947dbd2e0f",
    7: "931c5b383fff4492ba5be269e2aaf08a3eeb50c17bb8196550641a753917d0b2",
    8: "2dd0b71e444b8759bab201afb9e7196fcb6bdc59d6d5648ba835446c61a49b5e",
}


@pytest.mark.parametrize("k", sorted(TRANSPORTED))
def test_kneser_matching_classes_are_unchanged(k):
    classes = kneser_matching_coloring(k).classes
    assert hashlib.sha256(json.dumps(classes).encode()).hexdigest() == TRANSPORTED[k]


@pytest.mark.parametrize("k", [11, 40])
def test_kneser_matching_refuses_k_above_10_before_building(k, monkeypatch):
    # K(22,11) alone has 705,432 vertices; the cap on m = C(2k-1,k-1) comes first
    def refuse(*args):
        raise AssertionError("K(2k,k) was built before the cap was checked")

    monkeypatch.setattr(pseudoachromatic, "build_kneser", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterDomainError, match="exceed the declared class-bitset"):
            kneser_matching_coloring(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
