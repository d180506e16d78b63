from itertools import combinations
from math import comb

import pytest

from kneser_colorings.achromatic import (K42_PATTERN, K52_PATTERN, achromatic_coloring,
                                         grundy_relabel)
from kneser_colorings.colorings import Coloring, check_condition_C, verify_coloring
from kneser_colorings.errors import ParameterDomainError, ShapeError
from kneser_colorings.kneser import build_kneser

from conftest import brute_complete, brute_proper, kneser_adjacent


def _search_small_patterns(n, profile):
    """Exhaustively find all proper complete colorings of K(n,2) whose sorted
    class sizes equal `profile` (regression for the frozen literals)."""
    verts = [tuple(sorted(p)) for p in combinations(range(1, n + 1), 2)]
    results = []
    profile = sorted(profile, reverse=True)

    def rec(remaining, classes, sizes):
        if not sizes:
            if not remaining:
                ok_p, _ = brute_proper(classes, kneser_adjacent)
                ok_c, _ = brute_complete(classes, kneser_adjacent)
                if ok_p and ok_c:
                    results.append(tuple(tuple(sorted(c)) for c in classes))
            return
        if not remaining:
            return
        first = min(remaining)
        for extra in combinations(sorted(remaining - {first}), sizes[0] - 1):
            cls = (first,) + extra
            rec(remaining - set(cls), classes + [cls], sizes[1:])

    rec(set(verts), [], profile)
    return set(results)


def test_k42_literal_is_reachable_by_search():
    found = {frozenset(map(frozenset, sol)) for sol in _search_small_patterns(4, [2, 2, 2])}
    assert frozenset(frozenset(c) for c in K42_PATTERN) in found


def test_k52_literal_is_reachable_by_search():
    found = {frozenset(map(frozenset, sol))
             for sol in _search_small_patterns(5, [2, 2, 2, 2, 2])}
    assert frozenset(frozenset(c) for c in K52_PATTERN) in found


@pytest.mark.parametrize("n,classes", [(2, 1), (3, 1), (4, 3), (5, 5), (6, 7),
                                       (7, 9), (13, 30), (20, 70)])
def test_class_counts(n, classes):
    assert achromatic_coloring(n).color_count == classes


def test_n3_single_class():
    c = achromatic_coloring(3)
    assert c.color_count == 1 and len(c.classes[0]) == 3


def test_n6_structure():
    c = achromatic_coloring(6)
    assert c.class_histogram() == {3: 4, 1: 3}


def test_n7_class_profile():
    c = achromatic_coloring(7)
    assert c.class_histogram() == {3: 5, 2: 2, 1: 2}


def test_rejects_n1():
    with pytest.raises(ParameterDomainError):
        achromatic_coloring(1)


# the declared range, n = 2..180; every class order is already the one
# grundy_relabel gives
@pytest.mark.parametrize("n", range(2, 181))
def test_certified_proper_complete_condition_c(n):
    c = achromatic_coloring(n)  # constructor re-verifies; failures raise
    assert c.color_count == (1 if n == 3 else comb(n + 1, 2) // 3)
    assert grundy_relabel(c).classes == c.classes
    if n != 3:
        assert check_condition_C(c).passes
        assert all(len(cls) <= 3 for cls in c.classes)


def test_size2_classes_have_distinct_centers():
    for n in (9, 10, 13, 16):
        c = achromatic_coloring(n)
        centers = []
        for cls in c.classes:
            if len(cls) == 2:
                shared = set(cls[0]) & set(cls[1])
                assert len(shared) == 1
                centers.append(shared.pop())
        assert len(centers) == len(set(centers))


def test_grundy_relabel_orders_by_size():
    c = grundy_relabel(achromatic_coloring(6))
    sizes = [len(cls) for cls in c.classes]
    assert sizes == [3, 3, 3, 3, 1, 1, 1]
    rep = verify_coloring(Coloring(build_kneser(6, 2), c.classes), checks={"grundy"})
    assert rep.grundy


@pytest.mark.parametrize("n", [6, 7, 8, 12, 13, 14, 18, 19, 20])
def test_grundy_holds_on_residues_0_1_2(n):
    c = grundy_relabel(achromatic_coloring(n))
    rep = verify_coloring(Coloring(build_kneser(n, 2), c.classes),
                          checks={"proper", "complete", "grundy"})
    assert rep.proper and rep.complete and rep.grundy


@pytest.mark.parametrize("n", [4, 5])
def test_grundy_fails_at_4_and_5_beyond_max_degree(n):
    """The relabeled optimum cannot be Grundy here: l exceeds Delta + 1."""
    c = grundy_relabel(achromatic_coloring(n))
    assert c.color_count > build_kneser(n, 2).regular_degree + 1
    rep = verify_coloring(Coloring(build_kneser(n, 2), c.classes), checks={"grundy"})
    assert not rep.grundy
    assert "grundy" in rep.witnesses


@pytest.mark.parametrize("n", [9, 10, 11])
def test_grundy_fails_on_residues_3_4_5(n):
    """Size-ordering cannot make these constructions Grundy:
    a path class through both hub points (or the K(4,2) gadget) leaves some
    vertex with no neighbor in a smaller class, whichever order is chosen."""
    c = grundy_relabel(achromatic_coloring(n))
    rep = verify_coloring(Coloring(build_kneser(n, 2), c.classes), checks={"grundy"})
    assert not rep.grundy


def test_grundy_relabel_shape_error():
    g = build_kneser(4, 2)
    big = Coloring(g, (tuple(g.vertices),))
    with pytest.raises(ShapeError):
        grundy_relabel(big)


def test_relabel_is_stable_within_size():
    c = achromatic_coloring(13)
    g = grundy_relabel(c)
    per_size = {3: [], 2: [], 1: []}
    for cls in c.classes:
        per_size[len(cls)].append(cls)
    assert list(g.classes) == per_size[3] + per_size[2] + per_size[1]


@pytest.mark.parametrize("n", [58, 61])
def test_parallel_class_cases_do_not_search(n, monkeypatch):
    import kneser_colorings.designs

    def refuse(*args, **kwargs):
        raise AssertionError("exact_cover called on the achromatic path")

    monkeypatch.setattr(kneser_colorings.designs, "exact_cover", refuse)
    assert achromatic_coloring(n).color_count == comb(n + 1, 2) // 3
