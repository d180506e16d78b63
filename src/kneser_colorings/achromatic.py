"""Optimal proper complete colorings of K(n,2), one construction per residue of n mod 6.

Vertices of K(n,2) are edges of K_n; a "triangle class" is the three pairs
inside a triple, a "path class" is two pairs sharing a K_n vertex (a P_3),
and singletons are single pairs.  Classes are always emitted triangles
first, then paths, then singletons, which is exactly the color order the
Grundy relabeling wants.

Every constructor re-verifies its own output (proper, complete, class
count, condition (C)) and refuses to emit anything that fails.
"""
from __future__ import annotations

from .bounds import alpha_upper_kn2
from .colorings import Coloring, certify, check_condition_C, check_footprint
from .designs import construct_sts, find_parallel_class, punctured_packing
from .errors import CertificateError, ParameterDomainError, ShapeError
from .kneser import build_kneser, kneser_order

# Optimal patterns for the small cases, frozen from the tiny exhaustive
# searches kept in the test suite as regressions.
K42_PATTERN = (((1, 2), (1, 3)), ((2, 3), (3, 4)), ((1, 4), (2, 4)))
K52_PATTERN = (((1, 2), (2, 4)), ((2, 3), (3, 5)), ((1, 4), (3, 4)),
               ((2, 5), (4, 5)), ((1, 3), (1, 5)))
# STS(9) minus points 8 and 9: its five triangles, then the 6-cycle left over
# (2 5 4 6 3 7) as two paths and two singletons.  Point 1, in the block
# {1, 8, 9}, lies in triangle classes only.
K72_PATTERN = (((1, 2), (1, 6), (2, 6)), ((1, 3), (1, 5), (3, 5)), ((1, 4), (1, 7), (4, 7)),
               ((2, 3), (2, 4), (3, 4)), ((5, 6), (5, 7), (6, 7)),
               ((2, 5), (4, 5)), ((3, 6), (3, 7)), ((4, 6),), ((2, 7),))


def _pair(a: int, b: int):
    """The vertex of K(n,2) joining K_n points a and b."""
    return (a, b) if a < b else (b, a)


def _triangle_class(a: int, b: int, c: int):
    """The three vertices of K(n,2) inside the triple {a, b, c}, sorted."""
    return tuple(sorted((_pair(a, b), _pair(a, c), _pair(b, c))))


def _map_pattern(pattern, points):
    """Relabel a pattern given as classes of pairs on 1..len(points)."""
    out = []
    for cls in pattern:
        out.append(tuple(sorted(_pair(points[x - 1], points[y - 1]) for x, y in cls)))
    return out


def _case1(n: int):
    # n = 0,2 mod 6: STS(n+1) minus its last point; the leave is a matching
    triangles, leave = punctured_packing(n)
    return [_triangle_class(*blk) for blk in triangles] + [(e,) for e in leave]


def _case2(n: int):
    # n = 3,5 mod 6: STS(n-2) plus two points, one block dissolved into the
    # K(5,2) pattern
    sts = construct_sts(n - 2)
    u, v = n - 1, n
    a, b, c = sts.blocks[0]
    triangles = [_triangle_class(*blk) for blk in sts.blocks[1:]]
    pattern = _map_pattern(K52_PATTERN, (a, b, c, u, v))
    paths = [tuple(sorted((_pair(u, x), _pair(x, v))))
             for x in range(1, n - 1) if x not in (a, b, c)]
    return triangles + pattern + paths


def _case3(n: int):
    # n = 4 mod 6: STS(n-1) with one parallel class spread over a new point
    sts = construct_sts(n - 1)
    pc = find_parallel_class(sts)
    v = n
    pc_set = set(pc)
    triangles = [_triangle_class(*blk) for blk in sts.blocks if blk not in pc_set]
    paths = []
    for p, q, r in pc:
        paths.append(tuple(sorted((_pair(p, q), _pair(p, v)))))
        paths.append(tuple(sorted((_pair(q, r), _pair(q, v)))))
        paths.append(tuple(sorted((_pair(p, r), _pair(r, v)))))
    return triangles + paths


def _case4(n: int):
    # n = 1 mod 6, n >= 13: STS(n-4) with a parallel class; four new points
    # a,b,c,d; the join gadget on every parallel triple but the last; the
    # K(7,2) pattern on the last triple plus a,b,c,d.
    sts = construct_sts(n - 4)
    pc = find_parallel_class(sts)
    pc_set = set(pc)
    a, b, c, d = n - 3, n - 2, n - 1, n
    triangles = [_triangle_class(*blk) for blk in sts.blocks if blk not in pc_set]
    paths = []
    for v1, v2, v3 in pc[:-1]:
        triangles.append(_triangle_class(v1, v2, a))
        triangles.append(_triangle_class(v2, v3, b))
        triangles.append(_triangle_class(v1, v3, c))
        paths.append(tuple(sorted((_pair(a, v3), _pair(v3, d)))))
        paths.append(tuple(sorted((_pair(b, v1), _pair(v1, d)))))
        paths.append(tuple(sorted((_pair(c, v2), _pair(v2, d)))))
    # the K(7,2) pattern on the last triple plus a,b,c,d, its point 1 at d so
    # every pair at d lands in a triangle class (this is what lets the
    # size-ordered relabeling be a Grundy coloring here)
    tail = _map_pattern(K72_PATTERN, (d, *pc[-1], a, b, c))
    return triangles + tail[:5] + paths + tail[5:]


def achromatic_coloring(n: int, grundy: bool = False) -> Coloring:
    """A proper complete coloring of K(n,2) with alpha(K(n,2)) classes; 2 <= n <= 180.

    The range is where the class bitsets fit in BITSET_CAP (check_footprint); the classes
    come in grundy_relabel()'s order, so grundy=True only adds the Grundy self-check.
    """
    if n < 2:
        raise ParameterDomainError(f"achromatic construction needs n >= 2, got {n}")
    check_footprint(alpha_upper_kn2(n), kneser_order(n, 2))
    if n == 3:
        classes = [((1, 2), (1, 3), (2, 3))]
    elif n == 4:
        classes = list(K42_PATTERN)
    elif n == 7:
        classes = list(K72_PATTERN)
    elif n % 6 in (0, 2):
        classes = _case1(n)
    elif n % 6 in (3, 5):
        classes = _case2(n)
    elif n % 6 == 4:
        classes = _case3(n)
    else:
        classes = _case4(n)
    coloring = Coloring(build_kneser(n, 2), tuple(classes))
    checks = {"proper", "complete"}
    if grundy:
        checks.add("grundy")
    coloring = certify(coloring, checks, count=alpha_upper_kn2(n))
    if n != 3:  # K(3,2) is edgeless; its single class has no accounting to satisfy
        cc = check_condition_C(coloring)
        if not cc.passes:
            raise CertificateError(f"condition (C) failed for n={n}: {cc.problems}")
    return coloring


def grundy_relabel(coloring: Coloring) -> Coloring:
    """Recolor so size-3 classes get the smallest colors, then size-2, then size-1.

    Ties keep the constructor's canonical class order (stable sort).
    """
    for cls in coloring.classes:
        if len(cls) > 3:
            raise ShapeError(f"class {cls} has size {len(cls)} > 3")
    order = {3: 0, 2: 1, 1: 2}
    classes = tuple(sorted(coloring.classes, key=lambda cls: order[len(cls)]))
    return Coloring(coloring.graph, classes)

