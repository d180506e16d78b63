import random
from itertools import combinations, permutations

import pytest

from kneser_colorings.errors import SizeCapError
from kneser_colorings.geometry import (build_dv, convex_position_points,
                                       random_general_position)
from kneser_colorings.kneser import build_kneser
from kneser_colorings.oracle import (exact_achromatic, exact_chromatic, exact_grundy,
                                     exact_pseudoachromatic)


class SmallGraph:
    def __init__(self, n, edges):
        self.vertices = tuple(range(n))
        self._edges = sorted(set(tuple(sorted(e)) for e in edges))

    @property
    def vertex_count(self):
        return len(self.vertices)

    def index(self, v):
        return v

    def adjacency_bitsets(self):
        bits = [0] * len(self.vertices)
        for i, j in self._edges:
            bits[i] |= 1 << j
            bits[j] |= 1 << i
        return bits


def test_chromatic_values():
    assert exact_chromatic(build_kneser(5, 2)).value == 3
    assert exact_chromatic(build_kneser(4, 2)).value == 2
    assert exact_chromatic(build_kneser(6, 3)).value == 2


def test_achromatic_values():
    assert exact_achromatic(build_kneser(4, 2)).value == 3
    assert exact_achromatic(build_kneser(5, 2)).value == 5


def test_pseudoachromatic_values():
    assert exact_pseudoachromatic(build_kneser(5, 2)).value == 5
    assert exact_pseudoachromatic(build_kneser(4, 2)).value == 3
    assert exact_pseudoachromatic(SmallGraph(2, [(0, 1)])).value == 2


def test_grundy_values():
    assert exact_grundy(build_kneser(4, 2)).value == 2
    assert exact_grundy(build_kneser(5, 2)).value == 4  # Delta + 1 attained
    assert exact_grundy(build_kneser(3, 2)).value == 1


def test_grundy_of_k72():
    """Gamma(K(7,2)) = 9; a Grundy coloring is complete and proper, so this
    also shows alpha(K(7,2)) >= 9."""
    assert exact_grundy(build_kneser(7, 2), cap=21).value == 9


def test_edgeless_graphs():
    g = build_kneser(3, 2)
    assert exact_chromatic(g).value == 1
    assert exact_achromatic(g).value == 1
    assert exact_pseudoachromatic(g).value == 1


def test_null_graph_has_no_classes():
    g = SmallGraph(0, [])
    assert exact_chromatic(g).value == exact_grundy(g).value == 0
    assert exact_achromatic(g).value == exact_pseudoachromatic(g).value == 0


def test_size_caps():
    g = build_kneser(7, 2)  # 21 vertices
    with pytest.raises(SizeCapError):
        exact_achromatic(g)
    with pytest.raises(SizeCapError):
        exact_grundy(g, cap=20)
    assert exact_chromatic(g).value == 5  # default chi cap is 24


def test_chromatic_cap_override():
    g = build_kneser(7, 3)  # 35 vertices, chi = 3
    with pytest.raises(SizeCapError):
        exact_chromatic(g)
    assert exact_chromatic(g, cap=36).value == 3


@pytest.mark.parametrize("seed", range(6))
def test_parameter_chain_on_random_graphs(seed):
    """chi <= Gamma <= alpha <= psi on arbitrary small graphs."""
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    g = SmallGraph(n, edges)
    chi = exact_chromatic(g).value
    gr = exact_grundy(g).value
    al = exact_achromatic(g).value
    ps = exact_pseudoachromatic(g).value
    assert chi <= gr <= al <= ps


def test_chain_on_kneser_instances():
    for n, k in [(4, 2), (5, 2), (6, 3)]:
        g = build_kneser(n, k)
        chi = exact_chromatic(g).value
        gr = exact_grundy(g, cap=20).value
        al = exact_achromatic(g, cap=20).value
        ps = exact_pseudoachromatic(g, cap=20).value
        assert chi <= gr <= al <= ps
        assert chi == n - 2 * (k - 1)


def test_result_metadata():
    res = exact_achromatic(build_kneser(4, 2))
    assert res.param == "alpha" and res.nodes_explored > 0 and res.seconds >= 0
    doc = res.as_dict()
    assert set(doc) == {"param", "value", "nodes_explored", "seconds"}


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def _brute_parameters(n, edges):
    """chi, Gamma, alpha, psi by trying every set partition (and, for Gamma,
    every order of its classes)."""
    adj = set(edges) | {(v, u) for u, v in edges}

    def sees(v, cls):
        return any((v, u) in adj for u in cls)

    chi, grundy, alpha, psi = n, 0, 0, 0
    for part in _set_partitions(list(range(n))):
        l = len(part)
        proper = not any((u, v) in adj for cls in part for u, v in combinations(cls, 2))
        if all(any(sees(v, b) for v in a) for a, b in combinations(part, 2)):
            psi = max(psi, l)
            if proper:
                alpha = max(alpha, l)
        if proper:
            chi = min(chi, l)
            if l > grundy and any(all(sees(v, order[i]) for j in range(l) for v in order[j]
                                      for i in range(j))
                                  for order in permutations(part)):
                grundy = l
    return chi, grundy, alpha, psi


@pytest.mark.parametrize("seed", range(120))
def test_oracles_match_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    p = rng.choice((0.2, 0.4, 0.6, 0.8))
    edges = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < p]
    g = SmallGraph(n, edges)
    got = (exact_chromatic(g).value, exact_grundy(g).value,
           exact_achromatic(g).value, exact_pseudoachromatic(g).value)
    assert got == _brute_parameters(n, edges), (n, edges)


def _brute_complete(n, edges):
    """alpha and psi by trying every set partition, with no class orders."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    alpha = psi = 0
    for part in _set_partitions(list(range(n))):
        reach = [0] * len(part)  # reach[a]: the vertices class a has a neighbour among
        for a, cls in enumerate(part):
            for v in cls:
                reach[a] |= adj[v]
        masks = [sum(1 << v for v in cls) for cls in part]
        if all(reach[a] & masks[b] for a, b in combinations(range(len(part)), 2)):
            psi = max(psi, len(part))
            if not any(reach[a] & masks[a] for a in range(len(part))):
                alpha = max(alpha, len(part))
    return alpha, psi


@pytest.mark.parametrize("seed", range(40))
def test_complete_colorings_match_brute_force_on_eight_vertices(seed):
    rng = random.Random(seed)
    p = rng.choice((0.2, 0.4, 0.6, 0.8))
    edges = [(i, j) for i, j in combinations(range(8), 2) if rng.random() < p]
    g = SmallGraph(8, edges)
    got = exact_achromatic(g).value, exact_pseudoachromatic(g).value
    assert got == _brute_complete(8, edges), edges


def _first_fit_max(n, edges):
    """The largest color first-fit uses, over all n! vertex orders (every
    Grundy coloring is the first-fit coloring of its vertices by color)."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = 0
    for order in permutations(range(n)):
        classes = []
        for v in order:
            for c, cls in enumerate(classes):
                if not cls & adj[v]:
                    classes[c] |= 1 << v
                    break
            else:
                classes.append(1 << v)
        best = max(best, len(classes))
    return best


@pytest.mark.parametrize("seed", range(24))
def test_grundy_matches_first_fit_on_eight_vertices(seed):
    rng = random.Random(seed)
    p = rng.choice((0.2, 0.4, 0.6, 0.8))
    edges = [(i, j) for i, j in combinations(range(8), 2) if rng.random() < p]
    assert exact_grundy(SmallGraph(8, edges)).value == _first_fit_max(8, edges), edges


def test_values_the_benchmark_relies_on():
    k62, k63 = build_kneser(6, 2), build_kneser(6, 3)
    assert exact_achromatic(k62).value == exact_pseudoachromatic(k62).value == 7
    assert exact_grundy(k62).value == 7
    assert exact_achromatic(k63, cap=20).value == exact_pseudoachromatic(k63, cap=20).value == 5
    assert exact_grundy(build_dv(convex_position_points(6), 2)).value == 6


def test_search_order_keeps_kneser_searches_small():
    """The max-cardinality order refutes alpha, psi = 6 on K(6,3) within a few
    hundred nodes (a static degree order needed millions)."""
    k63 = build_kneser(6, 3)
    assert exact_achromatic(k63, cap=20).nodes_explored < 1000
    assert exact_pseudoachromatic(k63, cap=20).nodes_explored < 1000


def test_value_order_keeps_benchmark_searches_small():
    """Trying a new class first, then the classes that would newly see the
    most others, finds the complete 7-colorings of K(6,2) and of D_V(6) on
    random points quickly (alpha K(6,2) took 12,969 nodes and psi D_V(6) of
    seed 5 took 164,918 with classes tried in index order)."""
    k62 = build_kneser(6, 2)
    assert exact_achromatic(k62).nodes_explored < 1000
    assert exact_pseudoachromatic(k62).nodes_explored < 1000
    for seed in range(1, 11):
        g = build_dv(random_general_position(6, seed=seed), 2)
        for res in (exact_achromatic(g), exact_pseudoachromatic(g)):
            assert res.value == 7 and res.nodes_explored < 20000, (seed, res)


def test_grundy_recursion_stays_small():
    """Gamma on D_V(6) convex solves a few hundred vertex subsets."""
    assert exact_grundy(build_dv(convex_position_points(6), 2)).nodes_explored < 1000
