import json
import random
import tracemalloc
from bisect import bisect_right
from itertools import chain, count
from math import comb

import pytest

from kneser_colorings.achromatic import K52_PATTERN, achromatic_coloring, grundy_relabel
from kneser_colorings import achromatic, pseudoachromatic
from kneser_colorings import colorings
from kneser_colorings.bounds import alpha_upper_kn2, max_colors_for_pairs, psi_lower_kn2
from kneser_colorings.colorings import (ALL_CHECKS, Coloring, certify, check_condition_C,
                                        coloring_from_json, verify_coloring)
from kneser_colorings.errors import (CertificateError, CoverageError, ForeignVertexError,
                                     ParameterDomainError)
from kneser_colorings.geometry import (build_dv, convex_position_points, dv_achromatic_coloring,
                                       dvnk_lower_coloring, random_general_position)
from kneser_colorings.kneser import KneserGraph, MatchingGraph, bitset, build_kneser
from kneser_colorings.pseudoachromatic import _five_block_classes

from conftest import (as_lists, brute_complete, brute_dominating, brute_first_proper, brute_grundy,
                      brute_proper, dv_adjacent, kneser_adjacent)


def test_petersen_optimal_pattern():
    g = build_kneser(5, 2)
    c = Coloring(g, K52_PATTERN)
    rep = verify_coloring(c)
    assert rep.proper and rep.complete and rep.color_count == 5


def test_single_class_on_k42():
    g = build_kneser(4, 2)
    c = Coloring(g, (tuple(g.vertices),))
    rep = verify_coloring(c, checks={"proper", "complete"})
    assert not rep.proper
    assert rep.complete  # l = 1: trivially complete
    u, v = rep.witnesses["proper"]
    assert not set(u) & set(v)


def test_fig7_style_pattern_complete_not_proper():
    g = build_kneser(5, 2)
    classes = tuple(_five_block_classes((1, 2, 3, 4, 5)))
    rep = verify_coloring(Coloring(g, classes), checks={"proper", "complete"})
    assert rep.complete and not rep.proper and rep.color_count == 5


@pytest.mark.parametrize("n", [5, 6, 8, 10])
def test_completeness_agrees_with_naive_scan(n):
    g = build_kneser(n, 2)
    c = achromatic_coloring(n)
    rep = verify_coloring(Coloring(g, c.classes), checks={"complete", "proper"})
    ok, _ = brute_complete(c.classes, kneser_adjacent)
    ok_p, _ = brute_proper(c.classes, kneser_adjacent)
    assert rep.complete == ok and rep.proper == ok_p


def test_completeness_witness_when_leaders_run_against_class_order():
    """Class 1 (the star 12, 13, 14 of K(7,2)) sees none of classes 2, 3, 4 =
    {17}, {16}, {15}, whose lowest vertices come in the reverse of their class
    order; the witness is still the least pair."""
    g = build_kneser(7, 2)
    assert g.index((1, 5)) < g.index((1, 6)) < g.index((1, 7))
    classes = (((1, 2), (1, 3), (1, 4)), ((1, 7),), ((1, 6),), ((1, 5),),
               *(((v,) for v in g.vertices if 1 not in v)))
    rep = verify_coloring(Coloring(g, classes), checks={"complete"})
    assert (rep.complete, rep.witnesses) == (False, {"complete": (1, 2)})
    assert brute_complete(classes, kneser_adjacent) == (False, (1, 2))


def _kneser_misses_two_later_classes():
    """K(8,2): class 2, the star 12, 13, 14, sees neither class 3 = {17} nor
    class 4 = {15}; every other class pair meets."""
    g = build_kneser(8, 2)
    named = ((2, 3),), ((1, 2), (1, 3), (1, 4)), ((1, 7),), ((1, 5),)
    rest = tuple(v for v in g.vertices if v not in set(chain.from_iterable(named)))
    return g, kneser_adjacent, (*named, rest), (2, 3, 4)


def _matching_misses_two_later_classes():
    """Matching of 6 edges: class 1 = {1} sees only the class of its partner
    7, so it misses class 2 = {5} and class 3 = {3}."""
    classes = (1,), (5,), (3,), (2, 4, 6, 7, 8, 9, 10, 11, 12)
    return MatchingGraph(6), lambda u, v: abs(u - v) == 6, classes, (1, 2, 3)


@pytest.mark.parametrize("make", [_kneser_misses_two_later_classes,
                                  _matching_misses_two_later_classes],
                         ids=["K(8,2)", "matching(6)"])
def test_completeness_witness_is_the_least_missing_class(make):
    """Class a misses the later classes b1 < b2, whose leaders (lowest
    vertices) come in the opposite index order; the witness is (a, b1)."""
    g, adjacent, classes, (a, b1, b2) = make()

    def leader(c):
        return min(map(g.index, classes[c - 1]))

    def sees(c, d):
        return any(adjacent(u, v) for u in classes[c - 1] for v in classes[d - 1])

    assert leader(b2) < leader(b1) and not sees(a, b1) and not sees(a, b2)
    rep = verify_coloring(Coloring(g, classes), checks={"complete"})
    assert (rep.complete, rep.witnesses) == (False, {"complete": (a, b1)})
    assert brute_complete(classes, adjacent) == (False, (a, b1))


_MASK_PASS_CASES = {
    "K(7,3)": lambda: (build_kneser(7, 3), (1, 2, 9), "{} is not a vertex of K(7,3)"),
    "D_V(8,3)": lambda: (build_dv(convex_position_points(8), 3), (1, 2, 9),
                         "{} is not a vertex of K(8,3)"),
    "matching(6)": lambda: (MatchingGraph(6), 13, "vertex {} outside matching of size 6"),
}


@pytest.mark.parametrize("make", _MASK_PASS_CASES.values(), ids=_MASK_PASS_CASES.keys())
def test_mask_pass_takes_list_labels_and_reports_the_first_fault_in_scan_order(make):
    """Labels and classes given as lists verify as tuples do; a foreign label
    raises ForeignVertexError, and a repeated one (across classes or within
    one) CoverageError naming the first repeat in scan order, each with the
    label as given."""
    g, foreign, foreign_message = make()
    classes = [list(g.vertices[i::5]) for i in range(5)]
    rep = verify_coloring(Coloring(g, tuple(map(tuple, classes))))
    assert verify_coloring(Coloring(g, as_lists(classes))) == rep
    assert rep.witnesses
    for form in (lambda x: x, as_lists):  # as_lists turns tuple labels into lists
        bad = [cls[:1] + [foreign] + cls[1:] if c == 1 else cls for c, cls in enumerate(classes)]
        with pytest.raises(ForeignVertexError) as err:
            verify_coloring(Coloring(g, form(bad)))
        assert str(err.value) == foreign_message.format(form(foreign))
        # the copy in class 3 repeats first: the original of class 4's copy comes later
        first, later = classes[0][1], classes[3][0]
        bad = [cls + [first] if c == 2 else [later] + cls if c == 1 else cls
               for c, cls in enumerate(classes)]
        with pytest.raises(CoverageError) as err:
            verify_coloring(Coloring(g, form(bad)))
        assert str(err.value) == f"vertex {form(first)} appears in two classes"
        again = classes[2][0]  # repeated within its own class: the same message
        bad = [cls + [again] if c == 2 else cls for c, cls in enumerate(classes)]
        with pytest.raises(CoverageError) as err:
            verify_coloring(Coloring(g, form(bad)))
        assert str(err.value) == f"vertex {form(again)} appears in two classes"
        for tail, error in (([first, foreign], CoverageError),
                            ([foreign, first], ForeignVertexError)):
            bad = [cls + tail if c == 2 else cls for c, cls in enumerate(classes)]
            with pytest.raises(error):
                verify_coloring(Coloring(g, form(bad)))


def _tampered(classes, rng):
    """A copy of classes with two of them merged, or with one member split off
    into a class of its own at a random position."""
    classes = list(classes)
    if rng.random() < 0.5:
        a, b = rng.sample(range(len(classes)), 2)
        classes[a] += classes[b]
        del classes[b]
    else:
        a = rng.choice([i for i, cls in enumerate(classes) if len(cls) > 1])
        cls = list(classes[a])
        v = cls.pop(rng.randrange(len(cls)))
        classes[a] = tuple(cls)
        classes.insert(rng.randrange(len(classes) + 1), (v,))
    return tuple(classes)


def _dv8_convex():
    c = dv_achromatic_coloring(convex_position_points(8))
    return c, dv_adjacent(c.graph.ps)


_TAMPERED_CASES = {
    "K(30,2)": lambda: (achromatic_coloring(30), kneser_adjacent),
    "matching(40)": lambda: (pseudoachromatic.matching_coloring(40),
                             lambda u, v: abs(u - v) == 40),
    "D_V(8) convex": _dv8_convex,
}


@pytest.mark.parametrize("make", _TAMPERED_CASES.values(), ids=_TAMPERED_CASES.keys())
def test_tampered_completeness_matches_brute_force(make):
    """Merged and split copies of a construction get the naive scan's verdict
    and least incomplete pair."""
    c, adjacent = make()
    rng = random.Random(c.color_count)
    for _ in range(12):
        classes = _tampered(c.classes, rng)
        rep = verify_coloring(Coloring(c.graph, classes), checks={"complete"})
        ok, pair = brute_complete(classes, adjacent)
        assert (rep.complete, rep.witnesses.get("complete")) == (ok, pair), classes


@pytest.mark.parametrize("seed", range(8))
def test_perturbation_detected(seed):
    """Moving one vertex between classes must flip a verdict or a witness."""
    rng = random.Random(seed)
    n = rng.choice([6, 8, 9])
    g = build_kneser(n, 2)
    c = achromatic_coloring(n)
    classes = [list(cls) for cls in c.classes]
    src = rng.choice([i for i in range(len(classes)) if len(classes[i]) > 1])
    dst = rng.choice([i for i in range(len(classes)) if i != src])
    v = classes[src].pop(rng.randrange(len(classes[src])))
    classes[dst].append(v)
    mutated = Coloring(g, tuple(tuple(cls) for cls in classes))
    rep = verify_coloring(mutated, checks={"proper", "complete"})
    ok_c, _ = brute_complete(mutated.classes, kneser_adjacent)
    ok_p, _ = brute_proper(mutated.classes, kneser_adjacent)
    assert rep.complete == ok_c and rep.proper == ok_p


def test_grundy_flag_and_witness():
    g = build_kneser(6, 2)
    c = grundy_relabel(achromatic_coloring(6))
    rep = verify_coloring(Coloring(g, c.classes), checks={"grundy"})
    assert rep.grundy
    # reversing the color order breaks grundy but never proper/complete
    rev = Coloring(g, tuple(reversed(c.classes)))
    rep2 = verify_coloring(rev)
    assert rep2.proper and rep2.complete and not rep2.grundy
    vert, missing = rep2.witnesses["grundy"]
    assert missing >= 1


@pytest.mark.parametrize("seed", range(6))
def test_class_permutations_keep_proper_complete(seed):
    rng = random.Random(seed)
    n = rng.choice([6, 9, 10])
    g = build_kneser(n, 2)
    classes = list(achromatic_coloring(n).classes)
    rng.shuffle(classes)
    rep = verify_coloring(Coloring(g, tuple(classes)))
    assert rep.proper and rep.complete


def test_dominating_check():
    g = build_kneser(5, 2)
    rep = verify_coloring(Coloring(g, K52_PATTERN), checks={"dominating"})
    assert rep.dominating is not None


def test_coverage_errors():
    g = build_kneser(4, 2)
    with pytest.raises(CoverageError):
        verify_coloring(Coloring(g, (((1, 2),),)))
    with pytest.raises(CoverageError):
        verify_coloring(Coloring(g, (tuple(g.vertices), ((1, 2),))))
    with pytest.raises(CoverageError):
        verify_coloring(Coloring(g, (tuple(g.vertices), ())))


def test_condition_c_on_constructions():
    for n in (6, 10):
        cc = check_condition_C(achromatic_coloring(n))
        assert cc.passes
        assert len(cc.exceptional) <= 1


def test_condition_c_flags_shared_singleton_vertex():
    classes = (((1, 2),), ((1, 3),), ((2, 3), (2, 4), (3, 4)))
    # not even proper on K(4,2), but the report must flag the shared vertex
    cc = check_condition_C(Coloring(build_kneser(4, 2), classes))
    assert any("shared by two singleton" in p for p in cc.problems)
    assert not cc.matching_ok and not cc.passes


def test_condition_c_flags_non_p3():
    cc = check_condition_C(Coloring(build_kneser(4, 2), (((1, 2), (3, 4)),
                                                          ((1, 3), (1, 4)),
                                                          ((2, 3), (2, 4)))))
    assert not cc.p3_ok and not cc.passes


def test_json_round_trip():
    c = achromatic_coloring(9)
    again = coloring_from_json(c.to_json())
    assert again == c
    doc = json.loads(c.to_json())
    assert doc["n"] == 9 and doc["k"] == 2


_ROUND_TRIPS = {
    "K(9,2)": lambda: achromatic_coloring(9),
    "D_V(8,2) convex": lambda: dv_achromatic_coloring(convex_position_points(8)),
    "D_V(8,3) random": lambda: dvnk_lower_coloring(random_general_position(8, seed=1), 3),
    "matching(10)": lambda: pseudoachromatic.matching_coloring(10),
}


@pytest.mark.parametrize("make", _ROUND_TRIPS.values(), ids=_ROUND_TRIPS.keys())
def test_json_round_trip_per_graph_kind(make):
    c = make()
    again = coloring_from_json(c.to_json())
    assert type(again.graph) is type(c.graph) and again.graph.name == c.graph.name
    assert again.graph.header() == c.graph.header()
    assert again.to_json() == c.to_json() and again.classes == c.classes
    assert set(json.loads(c.to_json())) == set(c.graph.header()) | {"classes"}
    rep = verify_coloring(again, checks={"complete"})
    assert rep.complete and rep.color_count == c.color_count


_ENCODED = {**{f"K({n},2)": (lambda n=n: achromatic_coloring(n)) for n in range(58, 64)},
            "D_V(12,2) convex": lambda: dv_achromatic_coloring(convex_position_points(12)),
            "D_V(9,2) random": lambda: dv_achromatic_coloring(random_general_position(9, seed=3)),
            "matching(50)": lambda: pseudoachromatic.matching_coloring(50)}


@pytest.mark.parametrize("make", _ENCODED.values(), ids=_ENCODED.keys())
def test_to_json_matches_the_list_copy_encoding(make):
    # json.dumps writes tuples as arrays, so the classes go to it as they are
    c = make()
    header = {key: as_lists(val) for key, val in c.graph.header().items()}
    assert c.to_json() == json.dumps({**header, "classes": as_lists(c.classes)}, sort_keys=True)


def test_bitset_cap_admits_the_largest_declared_certificates():
    # the top of each declared range builds, self-certifies and decodes;
    # matching_coloring(100000) sits exactly at the cap
    assert max_colors_for_pairs(100_000) * 200_000 == colorings.BITSET_CAP
    for c in (achromatic_coloring(180), pseudoachromatic.psi_lower_coloring(164),
              pseudoachromatic.matching_coloring(100_000)):
        assert c.color_count * c.graph.vertex_count <= colorings.BITSET_CAP
        assert coloring_from_json(c.to_json()).classes == c.classes


_CONSTRUCTORS = (achromatic_coloring, pseudoachromatic.psi_lower_coloring,
                 pseudoachromatic.matching_coloring)


@pytest.mark.parametrize("make,top", zip(_CONSTRUCTORS, (180, 164, 100_000)),
                         ids=["alpha", "psi-lower", "matching"])
def test_one_above_each_top_is_refused_before_a_graph_is_built(make, top, monkeypatch):
    def refuse(*args):
        raise AssertionError("a graph was built above the declared range")

    monkeypatch.setattr(achromatic, "build_kneser", refuse)
    monkeypatch.setattr(pseudoachromatic, "build_kneser", refuse)
    monkeypatch.setattr(pseudoachromatic, "MatchingGraph", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterDomainError, match="exceed the declared class-bitset"):
            make(top + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _top(footprint, lo):
    """The largest x >= lo whose footprint(x), increasing in x, fits in BITSET_CAP."""
    return lo - 1 + bisect_right(range(lo, 10**6), colorings.BITSET_CAP, key=footprint)


def test_constructor_docstrings_state_the_range_the_cap_allows():
    tops = (_top(lambda n: alpha_upper_kn2(n) * comb(n, 2), 2),
            _top(lambda n: psi_lower_kn2(n) * comb(n, 2), 7),
            _top(lambda m: max_colors_for_pairs(m) * 2 * m, 1))
    assert tops == (180, 164, 100_000)
    for make, top in zip(_CONSTRUCTORS, tops):
        assert f"<= {top:,}" in make.__doc__, make.__name__


def test_bitset_cap_is_checked_before_the_graph_is_built(monkeypatch):
    # K(5,2) with every vertex its own class: 10 classes x 10 vertices = 100 bits
    text = json.dumps({"n": 5, "k": 2, "classes": [[[a, b]] for b in range(2, 6)
                                                   for a in range(1, b)]})
    monkeypatch.setattr(colorings, "BITSET_CAP", 100)
    assert coloring_from_json(text).color_count == 10
    monkeypatch.setattr(colorings, "BITSET_CAP", 99)
    monkeypatch.setattr(colorings, "build_kneser", None)  # calling it would fail
    with pytest.raises(ParameterDomainError, match="10 classes on 10 vertices"):
        coloring_from_json(text)


def test_histogram():
    c = achromatic_coloring(7)
    assert c.class_histogram() == {3: 5, 2: 2, 1: 2}


def _random_classes(vertices, adjacent, rng, mode):
    """Classes of a random partition, of a first-fit (Grundy) coloring with its
    classes shuffled, or of a first-fit coloring with one vertex split off."""
    order = list(vertices)
    rng.shuffle(order)
    if mode == "partition":
        l = rng.randint(1, min(len(order), 12))
        color = {v: i if i < l else rng.randrange(l) for i, v in enumerate(order)}
    else:
        color = {}
        for v in order:
            used = {color[u] for u in color if adjacent(u, v)}
            color[v] = next(c for c in count() if c not in used)
        l = max(color.values()) + 1
        if mode == "split":
            color[rng.choice(order)] = l
            l += 1
    classes = [[v for v in vertices if color[v] == c] for c in range(l)]
    classes = [cls for cls in classes if cls]
    if mode != "partition":
        rng.shuffle(classes)
    return tuple(tuple(cls) for cls in classes)


def _kneser_case(n, k):
    return build_kneser(n, k), kneser_adjacent


def _dv_case():
    g = build_dv(random_general_position(8, seed=1), 2)
    return g, dv_adjacent(g.ps)


def _matching_case(m=6):
    g = MatchingGraph(m)
    return g, lambda u, v: abs(u - v) == m


_KERNEL_CASES = ([(f"K({n},2)", lambda n=n: _kneser_case(n, 2)) for n in range(4, 11)]
                 + [(f"K({n},3)", lambda n=n: _kneser_case(n, 3)) for n in range(6, 10)]
                 + [("D_V(8)", _dv_case), ("matching(6)", _matching_case)])


@pytest.mark.parametrize("make", [m for _, m in _KERNEL_CASES],
                         ids=[name for name, _ in _KERNEL_CASES])
def test_verdicts_and_witnesses_match_brute_force(make):
    """All four verdicts and every witness equal the canonical brute-force ones."""
    g, adjacent = make()
    rng = random.Random(g.vertex_count)
    verts = list(g.vertices)
    for mode in ("partition", "shuffled", "split") * 3:
        classes = _random_classes(verts, adjacent, rng, mode)
        rep = verify_coloring(Coloring(g, classes))
        proper, proper_w = brute_first_proper(verts, classes, adjacent)
        complete, complete_w = brute_complete(classes, adjacent)
        grundy, grundy_w = brute_grundy(verts, classes, adjacent)
        dominating, dominating_w = brute_dominating(classes, adjacent)
        if not proper:
            grundy, grundy_w = False, proper_w
        want = {"proper": proper_w, "complete": complete_w, "grundy": grundy_w,
                "dominating": dominating_w}
        assert (rep.proper, rep.complete, rep.grundy, rep.dominating) == (
            proper, complete, grundy, dominating), classes
        assert rep.witnesses == {k: w for k, w in want.items() if w is not None}, classes


_UNION_CASES = ([(f"K({n},2)", lambda n=n: _kneser_case(n, 2)) for n in range(5, 10)]
                + [(f"K({n},3)", lambda n=n: _kneser_case(n, 3)) for n in range(7, 10)]
                + [(f"matching({m})", lambda m=m: _matching_case(m)) for m in (5, 12)]
                + [("D_V(8)", _dv_case)])


def _pairwise_unions(g, adjacent, classes):
    """Each class's union from the per-pair adjacency alone: the vertices
    adjacent to some member, with no row of the graph read."""
    return [bitset([j for j, u in enumerate(g.vertices) if any(adjacent(u, v) for v in cls)])
            for cls in classes]


@pytest.mark.parametrize("make", [m for _, m in _UNION_CASES],
                         ids=[name for name, _ in _UNION_CASES])
def test_class_unions_match_the_neighbourhood_stream(make, monkeypatch):
    """Each graph's class_unions() yields the unions formed from its per-pair
    adjacency (on D_V, the hull test against the tangent rows), and so does
    every verdict and witness of a report; the random colorings fail each of
    the four checks."""
    g, adjacent = make()
    rng = random.Random(len(g.vertices) * 31 + len(g.name))
    failed = set()
    for mode in ("partition", "shuffled", "split") * 4:
        classes = _random_classes(list(g.vertices), adjacent, rng, mode)
        unions = g.class_unions(classes)
        assert iter(unions) is unions  # yielded one class at a time
        assert list(unions) == _pairwise_unions(g, adjacent, classes)
        coloring = Coloring(g, classes)
        rep = verify_coloring(coloring)
        with monkeypatch.context() as pairwise:
            pairwise.setattr(type(g), "class_unions",
                             lambda self, classes: _pairwise_unions(self, adjacent, classes))
            assert verify_coloring(coloring) == rep, classes
        failed |= {check for check in ALL_CHECKS if getattr(rep, check) is False}
    assert failed == ALL_CHECKS


def test_kneser_and_matching_verification_never_stream_neighbourhoods(monkeypatch):
    """Verification on K(n,k) and the matching reads class_unions() only,
    never the per-vertex rows of adjacency_bitsets()."""
    def no_rows(self):
        raise AssertionError("verify_coloring built adjacency_bitsets()")

    certified = [achromatic_coloring(9), pseudoachromatic.matching_coloring(40)]
    monkeypatch.setattr(KneserGraph, "adjacency_bitsets", no_rows)
    monkeypatch.setattr(MatchingGraph, "adjacency_bitsets", no_rows)
    for c in certified:
        rep = verify_coloring(c)
        assert rep.proper and rep.complete
    g = build_kneser(7, 3)  # improper, so the proper witness is formed too
    rep = verify_coloring(Coloring(g, (g.vertices[:20], g.vertices[20:])))
    assert rep.witnesses["proper"] == ((1, 2, 3), (4, 5, 6))
    rep = verify_coloring(Coloring(MatchingGraph(3), ((1, 2, 4), (3, 5, 6))))
    assert rep.witnesses["proper"] == (1, 4) and rep.complete


@pytest.mark.parametrize("doc,missing", [
    ({"n": 4, "k": 2}, "classes"),
    ({"k": 2, "classes": []}, "n"),
    ({"n": 4, "classes": []}, "k"),
    ({"points": [[0, 0], [1, 1]], "classes": []}, "k"),
])
def test_certificate_without_a_field_names_it(doc, missing):
    with pytest.raises(ParameterDomainError, match=f"the certificate has no '{missing}' field"):
        coloring_from_json(json.dumps(doc))


@pytest.mark.parametrize("doc,message", [
    ('{"n": 4, "k": 2, "classes": [[[1, 2]], 3]}', "each class"),
    ('{"n": 4, "k": 2, "classes": [[[1, 2], 7]]}', "each class"),
    ('{"n": 4, "k": 2, "classes": [[[1, true]]]}', "each class"),
    ('{"n": 4, "k": 2, "classes": [[[1, "2"]]]}', "each class"),
    ('{"matching_size": 2, "classes": [[1, 2], 3]}', "classes"),
    ('{"matching_size": 2, "classes": [[1, 2], [3, 4.0]]}', "classes"),
    ('{"points": [[0, 0], "xy"], "k": 2, "classes": []}', "points"),
])
def test_malformed_lists_keep_their_messages(doc, message):
    with pytest.raises(ParameterDomainError) as err:
        coloring_from_json(doc)
    assert str(err.value) == f"{message} must be a list of lists of integers"


def test_kneser_verification_never_scans_edges(monkeypatch):
    def no_scan(self):
        raise AssertionError("verify_coloring enumerated the edges of a Kneser graph")

    monkeypatch.setattr(KneserGraph, "edges", no_scan)
    rep = verify_coloring(Coloring(build_kneser(9, 2), achromatic_coloring(9).classes))
    assert rep.proper and rep.complete
    g = build_kneser(7, 3)
    rep = verify_coloring(Coloring(g, (g.vertices[:20], g.vertices[20:])))
    assert not rep.proper and rep.complete


def test_completeness_alone_forms_no_proper_witness(monkeypatch):
    """{"complete"} makes one class_unions() call even on an improper
    coloring; the one-vertex call that finds the proper witness is made
    only when proper or grundy is asked for, and a Grundy witness on a
    proper coloring costs the walk and one one-vertex call, no second walk."""
    calls = []
    unions = KneserGraph.class_unions

    def counted(self, classes):
        calls.append(len(classes))
        return unions(self, classes)

    monkeypatch.setattr(KneserGraph, "class_unions", counted)
    g = build_kneser(7, 3)
    coloring = Coloring(g, (g.vertices[:20], g.vertices[20:]))
    rep = verify_coloring(coloring, {"complete"})
    assert rep.complete and rep.proper is None and calls == [2]
    for checks in ({"proper"}, {"grundy"}):
        calls.clear()
        rep = verify_coloring(coloring, checks)
        assert rep.witnesses == {check: ((1, 2, 3), (4, 5, 6)) for check in checks}
        assert calls == [2, 1]
    relabelled = grundy_relabel(achromatic_coloring(9))
    calls.clear()
    rep = verify_coloring(relabelled, {"grundy"})
    assert rep.witnesses == {"grundy": ((1, 4), 8)} and calls == [15, 1]


def test_verification_holds_one_class_union_at_a_time():
    """The walk keeps one union live: all four checks of psi_lower_coloring(129)
    (4,128 classes on 8,256 vertices) peak far below the 11.5 MB that holding
    every union took."""
    coloring = pseudoachromatic.psi_lower_coloring(129)
    tracemalloc.start()
    try:
        verify_coloring(coloring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20, peak


def test_certify_returns_a_passing_coloring():
    c = Coloring(build_kneser(5, 2), K52_PATTERN)
    assert certify(c, {"proper", "complete"}, count=5) is c


def test_certify_refuses_a_wrong_class_count():
    c = Coloring(build_kneser(5, 2), K52_PATTERN)
    with pytest.raises(CertificateError, match=r"K\(5,2\) coloring built 5 classes, wants 6"):
        certify(c, {"proper", "complete"}, count=6)


def test_certify_names_an_improper_class():
    g = build_kneser(5, 2)
    c = Coloring(g, (g.vertices,))
    with pytest.raises(CertificateError, match="failed proper: ") as err:
        certify(c, {"proper", "complete"})
    assert "complete" not in str(err.value)


def test_certify_names_an_incomplete_pair():
    g = build_kneser(5, 2)
    c = Coloring(g, tuple((v,) for v in g.vertices))
    with pytest.raises(CertificateError, match="failed complete: ") as err:
        certify(c, {"proper", "complete"})
    assert "proper" not in str(err.value)


def test_constructor_withholds_a_coloring_missing_a_class(monkeypatch):
    full = pseudoachromatic._psi_lower_classes
    monkeypatch.setattr(pseudoachromatic, "_psi_lower_classes", lambda n: full(n)[1:])
    with pytest.raises(CertificateError, match=r"K\(9,2\) coloring built 17 classes, wants 18"):
        pseudoachromatic.psi_lower_coloring(9)
