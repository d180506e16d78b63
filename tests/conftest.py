"""Shared brute-force helpers; these stay independent of the library code paths
they are used to check.

The per-pair adjacency references live here, not in the package, which
builds every adjacency from bitsets.  The geometric ones take `orientation`
and `convex_hull` from the package: both are single-triple or single-list
primitives, and neither is the tangent-row path of D_V(n,k) that the
references check.  `reference_parser` is kneserc's argparse tree as it was
before cli.COMMANDS replaced it, the reference for the table's parse.
"""
import argparse
import gc
from contextlib import contextmanager
from functools import cache
from itertools import combinations

from kneser_colorings.geometry import convex_hull, orientation


def kneser_adjacent(u, v):
    """K(n,k) adjacency of two vertices: the subsets are disjoint."""
    return not set(u) & set(v)


def _on_segment(p, q, r):
    # q collinear with pr: is q within the bounding box of pr?
    return (min(p[0], r[0]) <= q[0] <= max(p[0], r[0])
            and min(p[1], r[1]) <= q[1] <= max(p[1], r[1]))


def segments_intersect(a, b):
    """Closed segments a = (p1,p2), b = (q1,q2) share at least one point."""
    p1, p2 = a
    q1, q2 = b
    o1 = orientation(p1, p2, q1)
    o2 = orientation(p1, p2, q2)
    o3 = orientation(q1, q2, p1)
    o4 = orientation(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(p1, q1, p2):
        return True
    if o2 == 0 and _on_segment(p1, q2, p2):
        return True
    if o3 == 0 and _on_segment(q1, p1, q2):
        return True
    if o4 == 0 and _on_segment(q1, p2, q2):
        return True
    return False


def _point_in_convex(hull_pts, p):
    # hull ccw with >= 3 vertices; general position keeps p off the boundary
    for i in range(len(hull_pts)):
        if orientation(hull_pts[i], hull_pts[(i + 1) % len(hull_pts)], p) < 0:
            return False
    return True


def hulls_disjoint(pts_a, pts_b):
    """Convex hulls of two coordinate lists share no point (closed hulls).
    A two-point hull is its segment, so this decides segments too."""
    ha = [pts_a[i] for i in convex_hull(pts_a)]
    hb = [pts_b[i] for i in convex_hull(pts_b)]

    def boundary(h):
        if len(h) == 1:
            return [(h[0], h[0])]
        if len(h) == 2:
            return [(h[0], h[1])]
        return [(h[i], h[(i + 1) % len(h)]) for i in range(len(h))]

    for ea in boundary(ha):
        for eb in boundary(hb):
            if segments_intersect(ea, eb):
                return False
    if len(hb) >= 3 and _point_in_convex(hb, pts_a[0]):
        return False
    if len(ha) >= 3 and _point_in_convex(ha, pts_b[0]):
        return False
    return True


def dv_adjacent(ps):
    """D_V(n,k) adjacency over the PointSet ps: disjoint subsets whose hulls
    are disjoint, one hull test per pair for every k."""
    def adjacent(u, v):
        return kneser_adjacent(u, v) and hulls_disjoint([ps.coord(x) for x in u],
                                                        [ps.coord(x) for x in v])
    return adjacent


def brute_kneser_edges(n, k):
    """All disjoint pairs of k-subsets of [n], by direct enumeration."""
    verts = list(combinations(range(1, n + 1), k))
    return [(u, v) for u, v in combinations(verts, 2) if kneser_adjacent(u, v)]


def colex_subsets(n, k):
    """The k-subsets of [n] in colex order, by sorting on the reversed tuple."""
    return sorted(combinations(range(1, n + 1), k), key=lambda s: s[::-1])


def as_lists(x):
    """x with every tuple, at any depth, copied into a list: a reference
    encoding that json.dumps of the tuples themselves must match byte for byte."""
    return [as_lists(y) for y in x] if isinstance(x, (list, tuple)) else x


def brute_pair_cover(blocks, n):
    """Multiplicity of every point pair across the given blocks."""
    cnt = {pq: 0 for pq in combinations(range(1, n + 1), 2)}
    for blk in blocks:
        for pq in combinations(sorted(blk), 2):
            cnt[pq] += 1
    return cnt


def brute_complete(classes, adjacent):
    """Completeness by the naive all-pairs scan over class members."""
    l = len(classes)
    for i in range(l):
        for j in range(i + 1, l):
            if not any(adjacent(u, v) for u in classes[i] for v in classes[j]):
                return False, (i + 1, j + 1)
    return True, None


def brute_proper(classes, adjacent):
    for cls in classes:
        for u, v in combinations(cls, 2):
            if adjacent(u, v):
                return False, (u, v)
    return True, None


def brute_first_proper(vertices, classes, adjacent):
    """The adjacent same-class pair least in the given vertex order, by direct scan."""
    color = {v: c for c, cls in enumerate(classes) for v in cls}
    for u, v in combinations(vertices, 2):
        if color[u] == color[v] and adjacent(u, v):
            return False, (u, v)
    return True, None


def brute_grundy(vertices, classes, adjacent):
    """Every vertex sees every color below its own; witness is the first vertex
    (in the given order) that does not, with its lowest missing color."""
    color = {v: c for c, cls in enumerate(classes, 1) for v in cls}
    for v in vertices:
        seen = {color[u] for u in vertices if adjacent(u, v)}
        for c in range(1, color[v]):
            if c not in seen:
                return False, (v, c)
    return True, None


def brute_dominating(classes, adjacent):
    """Every class has a vertex seeing every other class; witness is the first
    class that has none."""
    color = {v: c for c, cls in enumerate(classes, 1) for v in cls}
    others = set(color.values())
    for c, cls in enumerate(classes, 1):
        if not any(others - {c} <= {color[u] for u in color if adjacent(u, v)}
                   for v in cls):
            return False, c
    return True, None


def union_cycle_lengths(f1, f2, t2):
    """Component cycle lengths of the union of two disjoint perfect matchings,
    by walking each cycle edge by edge."""
    nxt = [{a: b for e in f for a, b in (e, e[::-1])} for f in (f1, f2)]
    seen = set()
    out = []
    for v in range(1, t2 + 1):
        ln, cur = 0, v
        while cur not in seen:  # alternate f1, f2 edges around v's cycle
            seen.add(cur)
            cur = nxt[ln % 2][cur]
            ln += 1
        if ln:
            out.append(ln)
    return out


@contextmanager
def frees_what_it_makes(cls):
    """Run the block with the cycle collector off, then assert that every
    instance of cls still alive (by a scan of the collector's objects) was
    alive before the block: whatever the block made was freed by reference
    counting alone, so nothing, not even a cycle, pins it."""
    def live():
        return [o for o in gc.get_objects() if isinstance(o, cls)]

    before = live()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        left = [o for o in live() if not any(o is b for b in before)]
    finally:
        if enabled:
            gc.enable()
    assert not left, [o.name for o in left]


def _add_common(p):
    p.add_argument("--out", help="write the primary output to this file instead of stdout")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for geom's random layouts (other commands ignore it)")


@cache
def reference_parser():
    """kneserc's argparse tree as it was before the flag table replaced it, kept
    verbatim as the reference that the table's parse is compared with."""
    ap = argparse.ArgumentParser(prog="kneserc",
                                 description="Complete colorings of Kneser graphs: "
                                             "constructions, certificates, bounds, oracles.")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a certified coloring")
    c.add_argument("--family", required=True,
                   choices=["kn2-achromatic", "kn2-psi-lower", "kn2-psi-tight", "matching"])
    c.add_argument("--n", type=int, help="n for the K(n,2) families")
    c.add_argument("--m", type=int, help="matching size for --family matching")
    c.add_argument("--grundy", action="store_true",
                   help="apply the size-ordered Grundy relabeling and certify it "
                        "(kn2-achromatic only; exit 1 where it is not Grundy)")
    _add_common(c)

    v = sub.add_parser("verify", help="verify a coloring certificate file")
    v.add_argument("--coloring", required=True)
    v.add_argument("--graph", choices=["kneser", "dv", "matching"],
                   help="cross-check the certificate's graph kind")
    v.add_argument("--n", type=int)
    v.add_argument("--k", type=int)
    v.add_argument("--checks", default="proper,complete",
                   help="comma list from proper,complete,grundy,dominating,condition-c")
    _add_common(v)

    b = sub.add_parser("bounds", help="CSV table of all bound formulas")
    b.add_argument("--n-max", type=int, required=True)
    b.add_argument("--k-max", type=int, default=2)
    _add_common(b)

    o = sub.add_parser("oracle", help="exact exponential-time parameters on K(n,k)")
    o.add_argument("--param", required=True, choices=["alpha", "psi", "grundy", "chi"])
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--k", type=int, required=True)
    o.add_argument("--cap", type=int, help="vertex cap override")
    _add_common(o)

    d = sub.add_parser("design", help="construct or check block designs")
    d.add_argument("--type", choices=["sts", "kts", "21-5-1", "1f", "1f-c4free"])
    d.add_argument("--n", type=int, help="points for sts/kts")
    d.add_argument("--order", type=int, help="order for 1-factorizations")
    d.add_argument("--check", help="verify a design JSON file instead of constructing")
    _add_common(d)

    g = sub.add_parser("geom", help="geometric disjointness graphs")
    g.add_argument("--op", required=True,
                   choices=["dv-coloring", "thrackle", "dvnk", "triangle-pairs"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, help="subset size for dvnk")
    g.add_argument("--layout", choices=["convex", "random", "random-convex"],
                   default="convex")
    _add_common(g)

    e = sub.add_parser("export", help="export K(n,k) as DOT or JSON")
    e.add_argument("--format", required=True, choices=["dot", "json"])
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--k", type=int, required=True)
    _add_common(e)
    return ap
