"""Complete (not necessarily proper) colorings of K(n,2) realizing the psi bounds.

The lower-bound coloring pairs the edges of circle-method 1-factors in k
order, no search (four cases by n mod 4); the tightness coloring at n = 20
deletes a point of the (21,5,1)-design and labels the surviving blocks'
pairs; matchings get the closed-form optimal coloring.
"""
from __future__ import annotations

from math import comb

from .achromatic import _pair
from .bounds import max_colors_for_pairs, psi_lower_kn2
from .colorings import Coloring, certify, check_footprint
from .designs import circle_factor, construct_design_21_5_1
from .errors import ParameterDomainError
from .kneser import MatchingGraph, build_kneser


def _factor_classes(t2: int, drop_infinity: bool = False):
    """Size-2 classes from pairing the edges of each circle-method factor in k order.

    Classes from two factors F_a, F_b fail to see each other only on a C4 of
    F_a u F_b; the circle method's only one is {inf, a, a-d, a+d} with
    3d = 0 mod t2-1, and it joins the inf-edge and the k = d edge, which the
    pairing (inf, 1), (2, 3), ... puts in one class only when t2 = 4.  With
    drop_infinity the factor loses its inf-edge first (the maximal-matching
    case) and pairs (1, 2), (3, 4), ...
    """
    classes = []
    for i in range(t2 - 1):
        edges = circle_factor(t2, i)[int(drop_infinity):]
        classes.extend(zip(edges[::2], edges[1::2]))
    return classes


def psi_lower_coloring(n: int) -> Coloring:
    """A complete coloring of K(n,2) with floor(C(n,2)/2) classes; 7 <= n <= 164,
    where the class bitsets fit in BITSET_CAP (check_footprint)."""
    if n < 7:
        raise ParameterDomainError(f"psi lower construction needs n >= 7, got {n}")
    check_footprint(psi_lower_kn2(n), comb(n, 2))
    coloring = Coloring(build_kneser(n, 2), tuple(_psi_lower_classes(n)))
    return certify(coloring, {"complete"}, count=psi_lower_kn2(n))


def _psi_lower_classes(n: int):
    # K_m for m = n or n-2, whichever is 0,1 mod 4: the 4k case uses the factors
    # of K_m, the 4k+1 case those of K_{m+1} less its infinity point m+1
    m = n if n % 4 < 2 else n - 2
    classes = _factor_classes(m + m % 4, drop_infinity=m % 4 == 1)
    if m < n:
        # the spare points a, b add classes {ax, xb}; the edge ab joins class 1
        a, b = n - 1, n
        classes.extend((_pair(a, x), _pair(x, b)) for x in range(1, n - 1))
        classes[0] += (_pair(a, b),)
    return classes


# The ten pairs of a 5-set split into five classes of two disjoint pairs,
# class i = {p_i p_{i+1}, p_{i+2} p_{i+4}} (indices mod 5).
def _five_block_classes(block):
    p = list(block)
    out = []
    for i in range(5):
        out.append(tuple(sorted((_pair(p[i], p[(i + 1) % 5]),
                                 _pair(p[(i + 2) % 5], p[(i + 4) % 5])))))
    return out


def psi_tight_coloring(n: int = 20) -> Coloring:
    """The complete coloring of K(20,2) with 100 = psi(K(20,2)) classes.

    Deletes a point of the (21,5,1)-design: each surviving 5-block yields
    five 2-classes; the five punctured blocks yield the f-singletons and the
    e-pairs across consecutive blocks.
    """
    if n != 20:
        raise ParameterDomainError(
            f"tightness construction is n = 20 only (n+1 = 1 mod 20 at desk scale), got {n}")
    design = construct_design_21_5_1()
    v = 21
    full = [blk for blk in design.blocks if v not in blk]
    punctured = sorted(tuple(p for p in blk if p != v) for blk in design.blocks if v in blk)
    classes = []
    for blk in full:
        classes.extend(_five_block_classes(blk))
    f_edges = []
    e_edges = {}
    for i, (q1, q2, q3, q4) in enumerate(punctured):
        f_edges.append(_pair(q1, q2))
        f_edges.append(_pair(q3, q4))
        e_edges[i] = _pair(q1, q3)
        e_edges[5 + i] = _pair(q1, q4)
        e_edges[10 + i] = _pair(q2, q3)
        e_edges[15 + i] = _pair(q2, q4)
    for i in range(10):
        classes.append(tuple(sorted((e_edges[2 * i], e_edges[2 * i + 1]))))
    for e in f_edges:
        classes.append((e,))
    return certify(Coloring(build_kneser(20, 2), tuple(classes)), {"complete"}, count=100)


def matching_coloring(m: int) -> Coloring:
    """Proper complete coloring of an m-edge matching with max_colors_for_pairs(m) colors.

    Edge t < C(r,2) gets the t-th color pair {i,j} (lexicographic); leftover
    edges cycle through the pairs again.  Declared for 1 <= m <= 100,000, where
    the class bitsets fit in BITSET_CAP (exactly at the top; check_footprint).
    """
    if m < 1:
        raise ParameterDomainError(f"matching needs m >= 1 edges, got {m}")
    r = max_colors_for_pairs(m)
    check_footprint(r, 2 * m)
    pairs = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    classes = [[] for _ in range(r)]
    for t in range(m):
        i, j = pairs[t % len(pairs)]
        classes[i - 1].append(t + 1)  # edge t joins vertices t+1 and t+1+m
        classes[j - 1].append(t + 1 + m)
    coloring = Coloring(MatchingGraph(m), tuple(tuple(sorted(cls)) for cls in classes))
    return certify(coloring, {"proper", "complete"})


def kneser_matching_coloring(k: int) -> Coloring:
    """matching_coloring transported onto K(2k,k), whose edges pair complements.

    Declared for 1 <= k <= 10: K(2k,k) has m = C(2k-1,k-1) edges, and
    matching_coloring refuses m above 100,000 (k >= 11) before K(2k,k) is built.
    """
    if k < 1:
        raise ParameterDomainError(f"needs k >= 1, got {k}")
    m = comb(2 * k - 1, k - 1)
    base = matching_coloring(m)
    g = build_kneser(2 * k, k)
    full = set(range(1, 2 * k + 1))
    # matching vertex t is the t-th vertex through point 1, t + m its complement
    vertex = {}
    for t, v in enumerate((v for v in g.vertices if 1 in v), 1):
        vertex[t], vertex[t + m] = v, tuple(sorted(full - set(v)))
    coloring = Coloring(g, tuple(tuple(sorted(vertex[t] for t in cls)) for cls in base.classes))
    return certify(coloring, {"proper", "complete"})
