"""Geometric disjointness graphs over planar point sets, exact integer arithmetic.

D_V(n) has the segments spanned by V as vertices, adjacent when the closed
segments are disjoint; D_V(n,k) generalizes to k-point subsets with
disjoint convex hulls.  Everything below assumes (and enforces) general
position: integer coordinates, no three points collinear.

Adjacency rests on inner common tangents.  For points in general position
and disjoint k-subsets A, B (k >= 2), hull(A) and hull(B) are disjoint iff
some a in A and b in B have A - a strictly left of the directed line a->b and
B - b strictly right of it; disjoint hulls have two inner tangents, one with
A on each side, so one orientation suffices.  With left[p][q] the label
mask of the points strictly left of p->q (filled by PointSet's orientation
scan, one orientation per triple), D_V(n,k) is built from O(n^3 + V*k*n)
big-int operations instead of C(V,2) hull tests.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

from .achromatic import _map_pattern, _triangle_class
from .colorings import Coloring, certify
from .designs import construct_sts, punctured_packing
from .errors import ParameterDomainError, SearchExhaustedError, SizeCapError
from .kneser import SubsetGraph, bit_indices

POINT_CAP = 64  # points; the largest declared range of a geom operation (the D_V coloring)
THRACKLE_CAP = 7  # points; the clique search behind thrackle_max_edges is exponential
TRIANGLE_PAIR_CAP = 16  # points; triangle_pair_check compares O(n^6) triangle pairs


def orientation(p, q, r) -> int:
    """Sign of the cross product (q-p) x (r-p): +1 ccw, -1 cw, 0 collinear."""
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def convex_hull(points):
    """Monotone chain; returns the hull as indices into `points`, ccw order."""
    idx = sorted(range(len(points)), key=lambda i: points[i])
    if len(idx) <= 2:
        return idx

    def half(seq):
        out = []
        for i in seq:
            while len(out) >= 2 and orientation(points[out[-2]], points[out[-1]],
                                                points[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    lower = half(idx)
    upper = half(reversed(idx))
    return lower[:-1] + upper[:-1]


class PointSet:
    """Labeled integer points 1..n in general position.

    left[p][q] is the bitmask (bit x for label x) of the points strictly left
    of the directed line from point p to point q.
    """

    def __init__(self, coords):
        coords = tuple((int(x), int(y)) for x, y in coords)
        if len(set(coords)) != len(coords):
            raise ParameterDomainError("points must be distinct")
        n = len(coords)
        left = [[0] * (n + 1) for _ in range(n + 1)]
        for a, b, c in combinations(range(1, n + 1), 3):
            o = orientation(coords[a - 1], coords[b - 1], coords[c - 1])
            if o == 0:
                raise ParameterDomainError(
                    f"points {a},{b},{c} are collinear; general position required")
            if o < 0:
                b, c = c, b
            # a, b, c counterclockwise: each lies left of the edge through the other two
            left[a][b] |= 1 << c
            left[b][c] |= 1 << a
            left[c][a] |= 1 << b
        self.coords = coords
        self.left = left

    def __len__(self):
        return len(self.coords)

    def coord(self, label: int):
        return self.coords[label - 1]

    @property
    def convex_position(self) -> bool:
        return len(convex_hull(self.coords)) == len(self.coords)

    def hull_labels(self):
        return [i + 1 for i in convex_hull(self.coords)]


def convex_position_points(n: int) -> PointSet:
    """n parabola points (i, i^2): convex and general position."""
    if n < 3:
        raise ParameterDomainError(f"need n >= 3 points, got {n}")
    return PointSet([(i, i * i) for i in range(1, n + 1)])


def random_general_position(n: int, seed: int = 0) -> PointSet:
    """Rejection-sampled random integer points in [0, max(4n^2, 64))^2 with no
    three collinear."""
    if n < 1:
        raise ParameterDomainError(f"need n >= 1, got {n}")
    rng = random.Random(seed)
    span = max(4 * n * n, 64)
    pts: list = []
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 10000 * n:
            raise SearchExhaustedError("could not sample a general-position set")
        p = (rng.randrange(span), rng.randrange(span))
        if p in pts:
            continue
        if any(orientation(a, b, p) == 0 for a, b in combinations(pts, 2)):
            continue
        pts.append(p)
    return PointSet(pts)


def random_convex_position(n: int, seed: int = 0) -> PointSet:
    """n random parabola points: convex position, general position, seeded."""
    if n < 3:
        raise ParameterDomainError(f"need n >= 3, got {n}")
    rng = random.Random(seed)
    xs = rng.sample(range(1, max(20 * n, 100)), n)
    return PointSet(sorted((x, x * x) for x in xs))


class DisjointnessGraph(SubsetGraph):
    """D_V(n,k): k-subsets of the labels, adjacent iff their hulls are disjoint.

    D_V(n,k) is a spanning subgraph of K(n,k) and shares its vertex model
    (kneser.SubsetGraph): the same colex vertex tuple, indices() and point
    stars; only the adjacency differs, and so K(n,k)'s closed-form counts
    (regular_degree, edge_count) are not defined here.

    adjacency_bitsets() uses the inner-tangent criterion of the module
    docstring, which needs the general position PointSet enforces.  For each
    anchor point a, tangent[b] holds the vertices B containing b with B - b
    strictly left of b->a (star of b minus the stars of the points not
    there); N(A) is the union of tangent[b] over a in A and the b with A - a
    strictly left of a->b.  That is n(n-1) tangent rows of at most n star
    unions, then per vertex k anchors of k-1 mask ANDs and one union per
    tangent point.
    """

    def __init__(self, ps: PointSet, k: int):
        n = len(ps)
        if k < 2 or 2 * k > n:
            raise ParameterDomainError(f"D_V needs 2 <= k <= n/2, got k={k}, n={n}")
        super().__init__(n, k)
        self.ps = ps
        self._adj = None

    @property
    def name(self) -> str:
        return f"D_V({self.n},{self.k})"

    def header(self) -> dict:
        return {"points": self.ps.coords, "k": self.k}

    def adjacency_bitsets(self):
        """Per-vertex neighbour bitsets in index order (computed once, cached)."""
        if self._adj is None:
            n = self.n
            left = self.ps.left
            stars = self.stars
            labels = (1 << (n + 1)) - 2
            rows = [0] * self.vertex_count
            for a in range(1, n + 1):
                tangent = [0] * (n + 1)
                for b in chain(range(1, a), range(a + 1, n + 1)):
                    off, outside = 0, (labels & ~left[b][a]) ^ (1 << b)
                    while outside:  # label masks have a few bits: walk them from the top
                        y = outside.bit_length() - 1
                        outside ^= 1 << y
                        off |= stars[y]
                    tangent[b] = stars[b] & ~off
                for i in bit_indices(stars[a]):
                    wedge = -1  # the b with A - a strictly left of a->b
                    for x in self.vertices[i]:
                        if x != a:
                            wedge &= left[x][a]
                    row = rows[i]
                    while wedge:
                        b = wedge.bit_length() - 1
                        wedge ^= 1 << b
                        row |= tangent[b]
                    rows[i] = row
            self._adj = rows
        return self._adj


def build_dv(ps: PointSet, k: int) -> DisjointnessGraph:
    return DisjointnessGraph(ps, k)


def thrackle_max_edges(ps: PointSet) -> int:
    """Maximum number of pairwise meeting segments (a straight-line thrackle).

    Max clique in the complement of D_V(n); capped at THRACKLE_CAP points.
    """
    n = len(ps)
    if n > THRACKLE_CAP:
        raise SizeCapError(f"thrackle search capped at {THRACKLE_CAP} points, got {n}")
    if n < 4:  # any two segments on at most three points share an end
        return comb(n, 2)
    adj = build_dv(ps, 2).adjacency_bitsets()
    full = (1 << len(adj)) - 1
    meet = [full ^ bits ^ (1 << i) for i, bits in enumerate(adj)]
    best = 0

    def grow(cand, size):
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        low = cand & -cand
        v = low.bit_length() - 1
        grow(cand & meet[v], size + 1)
        grow(cand ^ low, size)

    grow(full, 0)
    return best


@dataclass
class TrianglePairReport:
    pairs_checked: int
    counterexamples: list

    @property
    def passes(self) -> bool:
        return not self.counterexamples

    def as_dict(self):
        return {"pairs_checked": self.pairs_checked,
                "counterexamples": [list(map(list, ce)) for ce in self.counterexamples],
                "passes": self.passes}


def triangle_pair_check(ps: PointSet) -> TrianglePairReport:
    """Every two point triangles sharing <= 1 point contain two disjoint edges.

    Capped at TRIANGLE_PAIR_CAP points.
    """
    n = len(ps)
    if n > TRIANGLE_PAIR_CAP:
        raise SizeCapError(f"triangle pair check capped at {TRIANGLE_PAIR_CAP} points, got {n}")
    if n < 5:  # two triangles on at most four points share an edge
        return TrianglePairReport(pairs_checked=0, counterexamples=[])
    g = build_dv(ps, 2)
    disj = g.adjacency_bitsets()
    checked = 0
    bad = []
    tris = list(combinations(range(1, n + 1), 3))
    points = [(1 << x) | (1 << y) | (1 << z) for x, y, z in tris]
    tri_edges = [g.indices(combinations(t, 2)) for t in tris]
    tri_mask = [sum(1 << e for e in es) for es in tri_edges]
    # the edges disjoint from at least one edge of each triangle
    missed = [disj[e] | disj[f] | disj[h] for e, f, h in tri_edges]
    for a, (pa, da) in enumerate(zip(points, missed)):
        for b in range(a + 1, len(tris)):
            if (pa & points[b]).bit_count() > 1:
                continue
            checked += 1
            if not da & tri_mask[b]:
                bad.append((tris[a], tris[b]))
    return TrianglePairReport(pairs_checked=checked, counterexamples=bad)


def dv_achromatic_coloring(ps: PointSet) -> Coloring:
    """A proper complete coloring of D_V(n).

    Odd n = 1,3 (mod 6): the blocks of STS(n) as triangle classes (any
    general-position set).  Even n (convex position): a triangle packing of
    K_{n+1} minus its last point, as triangle classes plus the components of
    the forest F left over, with F placed on the hull; the packing is
    STS(n+1) for n = 0,2 (mod 6) and triangle_packing(n+1) for n = 4 (mod 6).
    No search on any route.  Declared range: every supported n in
    7..POINT_CAP builds and self-verifies (swept in the tests); other n raise
    ParameterDomainError, n > POINT_CAP before D_V is built.
    """
    n = len(ps)
    if n > POINT_CAP:
        raise ParameterDomainError(f"D_V coloring is declared for n <= {POINT_CAP}, got {n}")
    if n % 2 == 1:
        if n % 6 not in (1, 3):
            raise ParameterDomainError(
                f"odd route needs n = 1,3 (mod 6) for an STS({n}); got n={n}")
        sts = construct_sts(n)
        classes = [_triangle_class(*blk) for blk in sts.blocks]
        expect = comb(n, 2) // 3
    else:
        if not ps.convex_position:
            raise ParameterDomainError("even route requires points in convex position")
        classes = _even_route(n, ps.hull_labels())
        expect = comb(n + 1, 2) // 3 if n % 6 in (0, 2) else (n * n + n - 8) // 6
    return certify(Coloring(build_dv(ps, 2), tuple(classes)), {"proper", "complete"},
                   count=expect)


def _even_route(n, hull):
    # Deleting point n+1 from a triangle packing of K_{n+1} leaves triangles
    # plus a forest F on 1..n: a perfect matching, or for n = 4 (mod 6) a
    # 3-edge star plus one.  Relabel so the star sits at h1 (hull edges h1h2,
    # h1hn and the diagonal h1h3) and the matching runs along alternating hull
    # edges after it.
    tris, forest = punctured_packing(n)
    ends = [p for e in forest for p in e]
    hub = {p for p in ends if ends.count(p) == 3}  # the star's centre, if any
    star = [e for e in forest if hub & set(e)]
    matching = [e for e in forest if not hub & set(e)]
    order = [*hub, *(p for e in star for p in e if p not in hub), *(p for e in matching for p in e)]
    place = dict(zip(order, (hull[:3] + hull[-1:] + hull[3:-1]) if star else hull))
    pattern = [tuple(combinations(blk, 2)) for blk in tris]
    pattern += ([tuple(star)] if star else []) + [(e,) for e in matching]
    return _map_pattern(pattern, [place[p] for p in range(1, n + 1)])


def dvnk_lower_coloring(ps: PointSet, k: int) -> Coloring:
    """Complete coloring of D_V(n,k) with C(n/2,k) classes via a halving line.

    Points split by x-order into halves V1, V2; class i pairs the i-th
    k-subset of V1 with the i-th of V2 (cross-side hulls are always
    disjoint); straddling subsets are spread round-robin over the classes.
    Declared range: even n in 4..22 with k = 2..min(4, n/2), random and
    convex layouts (swept in the tests); odd n, and n or k beyond that range,
    raise ParameterDomainError before D_V(n,k) is built.
    """
    n = len(ps)
    if n % 2 == 1:
        raise ParameterDomainError(f"halving construction needs even n, got {n}")
    if k < 2 or 2 * k > n:
        raise ParameterDomainError(f"need 2 <= k <= n/2, got k={k}")
    if n > 22 or k > 4:
        raise ParameterDomainError(f"halving construction is declared for n <= 22 and k <= 4, "
                                   f"got n={n}, k={k}")
    g = build_dv(ps, k)
    v1 = set(sorted(range(1, n + 1), key=ps.coord)[:n // 2])
    side1 = [v for v in g.vertices if v1.issuperset(v)]  # colex order, like g.vertices
    side2 = [v for v in g.vertices if v1.isdisjoint(v)]
    classes = [[a, b] for a, b in zip(side1, side2)]
    used = set(side1) | set(side2)
    leftovers = [v for v in g.vertices if v not in used]
    for i, v in enumerate(leftovers):
        classes[i % len(classes)].append(v)
    coloring = Coloring(g, tuple(tuple(sorted(cls)) for cls in classes))
    return certify(coloring, {"complete"}, count=comb(n // 2, k))
