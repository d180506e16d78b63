"""Independent checks of the outputs the benchmark collects.

Nothing here imports the package under test: every graph, predicate and
closed form is recomputed from its definition, so a fault in the package
cannot hide itself by agreeing with its own checker.  Each check raises
CheckFailed with a reason, or returns None.

K(n,2) checks work on vertex bitsets: vertex i is the i-th pair of [n], and
N(v) = ALL & ~(STAR[a] | STAR[b]) is the set of pairs disjoint from v = {a,b}.
For a class with vertex set M, S = OR of N(v) over v in M is the set of
vertices that see the class; the class is independent iff S & M == 0, and
classes i, j see each other iff S_i & M_j != 0.
"""
from __future__ import annotations

import random
from itertools import combinations
from math import comb


class CheckFailed(Exception):
    """An output that the benchmark's own check rejects."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# K(n,2)


class KN2:
    """K(n,2) as pair bitsets, built from the definition."""

    def __init__(self, n):
        self.n = n
        self.pairs = [(a, b) for b in range(2, n + 1) for a in range(1, b)]
        self.index = {p: i for i, p in enumerate(self.pairs)}
        self.star = [0] * (n + 1)
        for i, (a, b) in enumerate(self.pairs):
            self.star[a] |= 1 << i
            self.star[b] |= 1 << i
        self.all = (1 << len(self.pairs)) - 1

    def nbrs(self, v):
        a, b = v
        return self.all & ~(self.star[a] | self.star[b])


def _vertex(v, n):
    require(isinstance(v, (list, tuple)) and len(v) == 2
            and all(type(x) is int for x in v), f"{v!r} is not a pair of integers")
    a, b = v
    require(1 <= a < b <= n, f"{v!r} is not a sorted pair of points in 1..{n}")
    return (a, b)


class KN2Coloring:
    """A class list checked to partition the vertices of K(n,2)."""

    def __init__(self, n, classes):
        self.g = g = KN2(n)
        require(isinstance(classes, list), "classes is not a list")
        self.classes = []
        self.masks = []
        covered = 0
        for ci, cls in enumerate(classes):
            require(isinstance(cls, list) and cls, f"class {ci + 1} is empty or not a list")
            verts = [_vertex(v, n) for v in cls]
            mask = 0
            for v in verts:
                bit = 1 << g.index[v]
                require(not covered & bit, f"vertex {list(v)} is in two classes")
                covered |= bit
                mask |= bit
            self.classes.append(verts)
            self.masks.append(mask)
        require(covered == g.all, "the classes do not cover every vertex")
        self.seen = []
        for verts in self.classes:
            s = 0
            for v in verts:
                s |= g.nbrs(v)
            self.seen.append(s)
        self.color = {v: ci for ci, verts in enumerate(self.classes) for v in verts}

    @property
    def count(self):
        return len(self.classes)

    def proper(self):
        return all(s & m == 0 for s, m in zip(self.seen, self.masks))

    def complete(self):
        seen, masks = self.seen, self.masks
        return all(seen[i] & masks[j] for i in range(len(masks))
                   for j in range(i + 1, len(masks)))

    def grundy(self):
        """Proper, and every vertex of color c sees every color below c."""
        if not self.proper():
            return False
        above = 0
        for j in range(self.count - 1, -1, -1):
            if above & ~self.seen[j]:
                return False
            above |= self.masks[j]
        return True

    def dominating(self):
        """Every class holds a vertex that sees every other class."""
        l = self.count
        prefix = [self.g.all] * (l + 1)
        for i in range(l):
            prefix[i + 1] = prefix[i] & self.seen[i]
        suffix = self.g.all
        for i in range(l - 1, -1, -1):
            if not self.masks[i] & prefix[i] & suffix:
                return False
            suffix &= self.seen[i]
        return True

    def verdicts(self):
        return {"proper": self.proper(), "complete": self.complete(),
                "grundy": self.grundy(), "dominating": self.dominating()}

    def sees(self, v, ci):
        return bool(self.g.nbrs(v) & self.masks[ci])


def alpha_kn2(n):
    """alpha(K(n,2)) = floor(C(n+1,2)/3) for n >= 4."""
    return comb(n + 1, 2) // 3


def check_kn2_coloring(doc, n, count, proper, size_ordered=False):
    """A constructed K(n,2) coloring: partition, class count, properness, completeness."""
    require(doc.get("n") == n and doc.get("k") == 2, f"certificate is not for K({n},2)")
    col = KN2Coloring(n, doc.get("classes"))
    require(col.count == count, f"{col.count} classes, the closed form gives {count}")
    if proper:
        require(col.proper(), "coloring is not proper")
    require(col.complete(), "coloring is not complete")
    if size_ordered:
        sizes = [len(c) for c in col.classes]
        require(sizes == sorted(sizes, reverse=True),
                "relabelled classes are not ordered by decreasing size")
        require(col.grundy(), "relabelled coloring is not Grundy")
    return col


# ---------------------------------------------------------------------------
# kneserc verify reports


def _witness_vertex(w, n):
    try:
        return _vertex(w, n)
    except CheckFailed:
        raise CheckFailed(f"witness {w!r} is not a vertex") from None


def _check_proper_witness(col, w):
    require(isinstance(w, list) and len(w) == 2, f"proper witness {w!r} is not two vertices")
    u, v = (_witness_vertex(x, col.g.n) for x in w)
    require(col.color[u] == col.color[v], f"witness {w} spans two classes")
    require(not set(u) & set(v), f"witness {w} is not an edge")


def _check_complete_witness(col, w):
    require(isinstance(w, list) and len(w) == 2 and all(type(x) is int for x in w),
            f"complete witness {w!r} is not two classes")
    i, j = w
    require(1 <= i < j <= col.count, f"witness classes {w} out of range")
    require(not col.seen[i - 1] & col.masks[j - 1], f"classes {i} and {j} do see each other")


def _check_grundy_witness(col, w):
    require(isinstance(w, list) and len(w) == 2, f"grundy witness {w!r} has the wrong shape")
    if isinstance(w[1], list):  # an improper coloring is reported by its proper witness
        _check_proper_witness(col, w)
        return
    v = _witness_vertex(w[0], col.g.n)
    missing = w[1]
    require(type(missing) is int and 1 <= missing <= col.color[v],
            f"grundy witness {w} names no color below the vertex's")
    require(not col.sees(v, missing - 1), f"vertex {list(v)} does see color {missing}")


def _check_dominating_witness(col, w):
    require(type(w) is int and 1 <= w <= col.count, f"dominating witness {w!r} is not a class")
    others = [s for ci, s in enumerate(col.seen) if ci != w - 1]
    mask = col.masks[w - 1]
    for s in others:
        mask &= s
    require(not mask, f"class {w} does hold a vertex that sees every other class")


_WITNESS_CHECKS = {"proper": _check_proper_witness, "complete": _check_complete_witness,
                   "grundy": _check_grundy_witness, "dominating": _check_dominating_witness}


def condition_c(classes):
    """The accounting of condition (C), recomputed from its definition."""
    singles = []
    centers = []
    sizes_ok = p3_ok = True
    for cls in classes:
        if len(cls) > 3:
            sizes_ok = False
        if len(cls) == 1:
            singles.extend(cls[0])
        elif len(cls) == 2:
            shared = set(cls[0]) & set(cls[1])
            if len(shared) == 1:
                centers.append(shared.pop())
            else:
                p3_ok = False
    return {"sizes_ok": sizes_ok, "p3_ok": p3_ok,
            "singleton_points": sorted(set(singles)),
            "singletons_share_a_point": len(singles) != len(set(singles)),
            "centers": sorted(centers)}


def _check_condition_c(col, rep):
    """Check the accounting of a condition (C) report; return the verdict the
    definition gives: sizes at most 3, size-2 classes are P_3s, singleton
    classes form a matching of K_n, at most one exceptional point."""
    want = condition_c(col.classes)
    require(isinstance(rep, dict), "condition_c report missing")
    for key in ("sizes_ok", "p3_ok", "singleton_points", "centers"):
        require(rep.get(key) == want[key],
                f"condition_c {key} is {rep.get(key)!r}, expected {want[key]!r}")
    involved = set(want["singleton_points"]) | set(want["centers"])
    exceptional = [p for p in range(1, col.g.n + 1) if p not in involved]
    require(rep.get("exceptional") == exceptional, "condition_c exceptional points differ")
    require(rep.get("exceptional_count") == len(exceptional), "condition_c count differs")
    shared_flagged = any("shared by two singleton" in p for p in rep.get("problems", []))
    require(shared_flagged == want["singletons_share_a_point"],
            "condition_c does not flag exactly the singleton classes that share a point")
    return (want["sizes_ok"] and want["p3_ok"] and not want["singletons_share_a_point"]
            and len(exceptional) <= 1)


def check_verify_report(certificate, report, exit_code, tamper=None):
    """A `kneserc verify --checks proper,complete,grundy,dominating,condition-c` result.

    Every verdict must equal the independent one, every reported violation
    must come with a witness that really violates it, and the exit code
    must be 0 exactly when every check passed.  The condition (C) verdict
    is checked last, so a wrong one is reported only when all else is right.
    """
    n = certificate["n"]
    col = KN2Coloring(n, certificate["classes"])
    want = col.verdicts()
    require(report.get("color_count") == col.count, "color_count differs")
    hist = {}
    for cls in col.classes:
        hist[str(len(cls))] = hist.get(str(len(cls)), 0) + 1
    require(report.get("class_histogram") == hist, "class_histogram differs")
    witnesses = report.get("witnesses", {})
    for check, verdict in want.items():
        require(report.get(check) is verdict,
                f"{check} verdict {report.get(check)!r}, the independent check says {verdict}")
        if verdict:
            require(check not in witnesses, f"{check} passed but has a witness")
        else:
            require(check in witnesses, f"{check} failed without a witness")
            _WITNESS_CHECKS[check](col, witnesses[check])
    rep_c = report.get("condition_c")
    cc_pass = _check_condition_c(col, rep_c)
    if tamper is not None:
        require(not want[tamper], f"input tampered to fail {tamper} passes it")
    ok = all(want.values()) and cc_pass
    require(exit_code == (0 if ok else 1), f"exit code {exit_code}, expected {0 if ok else 1}")
    require(rep_c.get("passes") is cc_pass,
            f"condition_c passes is {rep_c.get('passes')!r}, the definition gives {cc_pass}")


# ---------------------------------------------------------------------------
# Kirkman triple systems


def check_kts(doc, n):
    """Every day partitions the points; every pair lies in exactly one block."""
    require(doc.get("n") == n, f"design is not on {n} points")
    blocks = doc.get("blocks")
    days = doc.get("classes")
    require(isinstance(blocks, list) and isinstance(days, list), "blocks or classes missing")
    require(len(blocks) == n * (n - 1) // 6,
            f"{len(blocks)} blocks, a KTS({n}) has {n * (n - 1) // 6}")
    require(len(days) == (n - 1) // 2, f"{len(days)} days, a KTS({n}) has {(n - 1) // 2}")
    pairs = set()
    for blk in blocks:
        require(isinstance(blk, list) and len(set(blk)) == 3
                and all(type(p) is int and 1 <= p <= n for p in blk), f"bad block {blk!r}")
        for p in combinations(sorted(blk), 2):
            require(p not in pairs, f"pair {p} lies in two blocks")
            pairs.add(p)
    require(len(pairs) == comb(n, 2), "some pair lies in no block")
    used = set()
    for day in days:
        pts = []
        for bi in day:
            require(type(bi) is int and 0 <= bi < len(blocks) and bi not in used,
                    f"day {day} reuses or misnames a block")
            used.add(bi)
            pts.extend(blocks[bi])
        require(sorted(pts) == list(range(1, n + 1)), "a day does not partition the points")


# ---------------------------------------------------------------------------
# Planar point sets, exact integer predicates


def orient(p, q, r):
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def check_general_position(points, n):
    require(isinstance(points, list) and len(points) == n, f"expected {n} points")
    pts = [tuple(p) for p in points]
    require(all(len(p) == 2 and all(type(x) is int for x in p) for p in pts),
            "points are not integer pairs")
    require(len(set(pts)) == n, "points are not distinct")
    for a, b, c in combinations(pts, 3):
        require(orient(a, b, c) != 0, f"points {a} {b} {c} are collinear")
    return pts


def in_convex_position(pts):
    """No point lies inside a triangle of three others."""
    for t in combinations(range(len(pts)), 3):
        a, b, c = (pts[i] for i in t)
        s = orient(a, b, c)
        for i, p in enumerate(pts):
            if i not in t and orient(a, b, p) == s and orient(b, c, p) == s \
                    and orient(c, a, p) == s:
                return False
    return True


def _separates(a_pts, b_pts):
    """Some line through two points of A has all of A on one side, all of B strictly on the other."""
    for i, j in combinations(range(len(a_pts)), 2):
        p, q = a_pts[i], a_pts[j]
        own = {orient(p, q, r) for k, r in enumerate(a_pts) if k not in (i, j)}
        if len(own) > 1:
            continue
        other = {orient(p, q, r) for r in b_pts}
        if len(other) == 1 and not own & other:
            return True
    return False


def hulls_disjoint(a_pts, b_pts):
    """Convex hulls of two point sets in general position are disjoint.

    Two disjoint convex polygons (segments included) are separated by the
    line through an edge of one of them.
    """
    return _separates(a_pts, b_pts) or _separates(b_pts, a_pts)


def check_dv_coloring(doc, n, k, count, proper, convex):
    """A coloring of D_V(n,k): partition of the k-subsets, count, properness, completeness."""
    require(doc.get("k") == k, f"coloring is not for k = {k}")
    pts = check_general_position(doc.get("points"), n)
    if convex:
        require(in_convex_position(pts), "points are not in convex position")
    classes = doc.get("classes")
    require(isinstance(classes, list), "classes is not a list")
    require(len(classes) == count, f"{len(classes)} classes, the closed form gives {count}")
    seen = set()
    hulls = []
    for cls in classes:
        require(isinstance(cls, list) and cls, "empty class")
        members = []
        for v in cls:
            require(isinstance(v, list) and len(v) == k and v == sorted(set(v))
                    and all(type(x) is int and 1 <= x <= n for x in v), f"bad vertex {v!r}")
            require(tuple(v) not in seen, f"vertex {v} is in two classes")
            seen.add(tuple(v))
            members.append([pts[x - 1] for x in v])
        hulls.append(members)
    require(len(seen) == comb(n, k), "the classes do not cover every vertex")
    if proper:
        for ci, members in enumerate(hulls):
            for a, b in combinations(members, 2):
                require(not hulls_disjoint(a, b), f"class {ci + 1} holds an edge")
    for i, j in combinations(range(len(hulls)), 2):
        require(any(hulls_disjoint(a, b) for a in hulls[i] for b in hulls[j]),
                f"classes {i + 1} and {j + 1} do not see each other")


def check_triangle_pairs(doc, n):
    """The triangle-pair lemma holds, over exactly the pairs that share at most one point."""
    t = comb(n, 3)
    pairs = comb(t, 2) - comb(n, 2) * comb(n - 2, 2)
    require(doc.get("pairs_checked") == pairs,
            f"{doc.get('pairs_checked')!r} pairs checked, {pairs} share at most one point")
    require(doc.get("counterexamples") == [] and doc.get("passes") is True,
            "the triangle-pair lemma is reported false")


# ---------------------------------------------------------------------------
# Exact oracles


def kneser_adjacency(n, k):
    verts = [sum(1 << x for x in c) for c in combinations(range(n), k)]
    return [{j for j, w in enumerate(verts) if not v & w} for v in verts]


def dv_adjacency(points, k=2):
    subsets = list(combinations(range(len(points)), k))
    hull = [[points[i] for i in s] for s in subsets]
    adj = [set() for _ in subsets]
    for i, j in combinations(range(len(subsets)), 2):
        if not set(subsets[i]) & set(subsets[j]) and hulls_disjoint(hull[i], hull[j]):
            adj[i].add(j)
            adj[j].add(i)
    return adj


def first_fit_colors(adj, seed):
    """Colors used by first-fit in a seeded order: a Grundy coloring, so a lower bound."""
    order = list(range(len(adj)))
    random.Random(seed).shuffle(order)
    color = {}
    for v in order:
        used = {color[u] for u in adj[v] if u in color}
        c = 1
        while c in used:
            c += 1
        color[v] = c
    return max(color.values(), default=0)


def pair_cover_bound(edges):
    """Largest r with C(r,2) <= |E|: every two classes of a complete coloring need an edge."""
    r = 1
    while comb(r + 1, 2) <= edges:
        r += 1
    return r


# published or closed-form values: Lovasz for chi, floor(C(n+1,2)/3) for alpha
# on K(n,2), the matching formula on K(2k,k), Gamma(Petersen) = 4
def exact_value(param, n, k):
    if param == "chi":
        return n - 2 * k + 2
    if n == 2 * k and param in ("alpha", "psi"):
        return pair_cover_bound(comb(n, k) // 2)
    if k == 2 and param == "alpha":
        return alpha_kn2(n)
    if (n, k, param) == (5, 2, "grundy"):
        return 4
    return None


def oracle_bounds(adj, param, seed):
    """Bounds that hold for every graph: first-fit <= Gamma <= alpha <= psi."""
    edges = sum(len(a) for a in adj) // 2
    lower = first_fit_colors(adj, seed)
    if param == "grundy":
        return lower, max((len(a) for a in adj), default=0) + 1
    return lower, min(len(adj), pair_cover_bound(edges))


def check_oracle_value(param, value, nodes, adj, seed, exact=None, lower=None):
    require(type(value) is int and type(nodes) is int and nodes > 0,
            f"value {value!r} or node count {nodes!r} is not a positive integer")
    if exact is not None:
        require(value == exact, f"{param} = {value}, the known value is {exact}")
        return
    lo, hi = oracle_bounds(adj, param, seed)
    if lower is not None:
        lo = max(lo, lower)
    require(lo <= value <= hi, f"{param} = {value} lies outside [{lo}, {hi}]")
