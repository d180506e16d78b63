"""Shared brute-force helpers; these stay independent of the library code paths
they are used to check."""
import gc
from contextlib import contextmanager
from itertools import combinations


def brute_kneser_edges(n, k):
    """All disjoint pairs of k-subsets of [n], by direct enumeration."""
    verts = list(combinations(range(1, n + 1), k))
    return [(u, v) for u, v in combinations(verts, 2) if not set(u) & set(v)]


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
