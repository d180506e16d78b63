"""Exact exponential-time ground truth for chi, Gamma, alpha, psi on small graphs.

alpha and psi share one branch-and-bound over class assignments (properness
is a toggle); Gamma has its own over color assignments.  Both walk target
counts downward, so every reported value is both attained and refuted at
value+1, and both place vertices in one max-cardinality order
(`_search_order`): each next vertex has the most neighbours already
placed, so the constraints between placed vertices bite near the root.
Admissible prunes only: for alpha and psi, pair-count versus
remaining-edge budget, open-class feasibility, and the singleton-degree
argument (a singleton class must see every other class); for Gamma, the
forward check (every colored vertex must still be able to see each color
below its own: the colors it misses number at most its uncolored
neighbours), applied to the vertex just colored and to its colored
neighbours.  chi is DSatur-ordered iterative deepening.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

from .errors import SizeCapError
from .kneser import bit_indices


@dataclass(frozen=True)
class OracleResult:
    param: str
    value: int
    nodes_explored: int
    seconds: float

    def as_dict(self):
        return {"param": self.param, "value": self.value,
                "nodes_explored": self.nodes_explored,
                "seconds": round(self.seconds, 6)}


def check_cap(vertex_count, cap, what):
    """Raise SizeCapError if a graph of vertex_count vertices exceeds cap."""
    if vertex_count > cap:
        raise SizeCapError(f"{what} capped at {cap} vertices, graph has {vertex_count}")


def _search_order(adj):
    """Max-cardinality vertex order: each next vertex is the unplaced one with
    the most neighbours already placed, ties to the higher degree, then the
    lower index."""
    placed = 0
    order = []
    for _ in adj:
        v = max((u for u in range(len(adj)) if not (placed >> u) & 1),
                key=lambda u: ((adj[u] & placed).bit_count(), adj[u].bit_count(), -u))
        order.append(v)
        placed |= 1 << v
    return order


def exact_chromatic(g, cap: int = 24) -> OracleResult:
    """Minimum proper coloring size, by iterative deepening from a clique bound."""
    check_cap(g.vertex_count, cap, "exact_chromatic")
    t0 = time.perf_counter()
    adj = g.adjacency_bitsets()
    V = len(adj)
    if V == 0:
        return OracleResult("chi", 0, 0, time.perf_counter() - t0)
    nbrs = [list(bit_indices(a)) for a in adj]
    deg = [len(nb) for nb in nbrs]
    clique = []
    for v in sorted(range(V), key=lambda v: -deg[v]):
        if all((adj[v] >> u) & 1 for u in clique):
            clique.append(v)
    lb = max(1, len(clique))
    nodes = 0

    def colorable(l):
        nonlocal nodes
        color = [0] * V

        def rec(assigned, maxc):
            nonlocal nodes
            nodes += 1
            if assigned == V:
                return True
            # most saturated uncolored vertex, ties by degree
            best, bsat, bdeg = -1, -1, -1
            for v in range(V):
                if color[v]:
                    continue
                seen = 0
                for u in nbrs[v]:
                    seen |= 1 << color[u]
                sat = (seen >> 1).bit_count()
                if sat > bsat or (sat == bsat and deg[v] > bdeg):
                    best, bsat, bdeg = v, sat, deg[v]
            v = best
            used = {color[u] for u in nbrs[v]}
            for c in range(1, min(l, maxc + 1) + 1):
                if c in used:
                    continue
                color[v] = c
                if rec(assigned + 1, max(maxc, c)):
                    return True
                color[v] = 0
            return False

        return rec(0, 0)

    l = lb
    while not colorable(l):
        l += 1
    return OracleResult("chi", l, nodes, time.perf_counter() - t0)


def _complete_max(g, proper: bool, cap: int, param: str) -> OracleResult:
    check_cap(g.vertex_count, cap, f"exact_{param}")
    t0 = time.perf_counter()
    adj = g.adjacency_bitsets()
    V = len(adj)
    E = sum(a.bit_count() for a in adj) // 2
    deg = [a.bit_count() for a in adj]
    maxdeg = max(deg, default=0)
    hi = 1
    while comb(hi + 1, 2) <= E:
        hi += 1
    hi = min(hi, V)
    order = _search_order(adj)
    nodes = 0

    def feasible(l):
        nonlocal nodes
        if l == 1:
            return True
        if 2 * l > V and maxdeg < l - 1:
            # some class must be a singleton, and a singleton must be
            # adjacent to all l-1 other classes
            return False
        classes = [0] * l
        seen = [0] * l
        assigned = 0

        def rec(pos, used, unseen, erem):
            nonlocal nodes, assigned
            nodes += 1
            if unseen == 0 and used == l:
                return True
            if pos == V or used + (V - pos) < l or unseen > erem:
                return False
            v = order[pos]
            av = adj[v]
            for c in range(min(used + 1, l)):
                if proper and classes[c] & av:
                    continue
                newly = []
                for c2 in range(l):
                    if c2 != c and classes[c2] & av and not (seen[c] >> c2) & 1:
                        newly.append(c2)
                classes[c] |= 1 << v
                for c2 in newly:
                    seen[c] |= 1 << c2
                    seen[c2] |= 1 << c
                e_used = (av & assigned).bit_count()
                assigned |= 1 << v
                if rec(pos + 1, max(used, c + 1), unseen - len(newly), erem - e_used):
                    return True
                assigned &= ~(1 << v)
                classes[c] &= ~(1 << v)
                for c2 in newly:
                    seen[c] &= ~(1 << c2)
                    seen[c2] &= ~(1 << c)
            return False

        return rec(0, 0, l * (l - 1) // 2, E)

    for l in range(hi, 0, -1):
        if feasible(l):
            return OracleResult(param, l, nodes, time.perf_counter() - t0)
    return OracleResult(param, 1, nodes, time.perf_counter() - t0)


def exact_achromatic(g, cap: int = 16) -> OracleResult:
    """Maximum proper complete coloring size."""
    return _complete_max(g, proper=True, cap=cap, param="alpha")


def exact_pseudoachromatic(g, cap: int = 16) -> OracleResult:
    """Maximum complete coloring size (properness dropped)."""
    return _complete_max(g, proper=False, cap=cap, param="psi")


def exact_grundy(g, cap: int = 16) -> OracleResult:
    """Maximum l admitting a Grundy l-coloring (every color j sees all i < j)."""
    check_cap(g.vertex_count, cap, "exact_grundy")
    t0 = time.perf_counter()
    adj = g.adjacency_bitsets()
    V = len(adj)
    if V == 0:
        return OracleResult("grundy", 0, 0, time.perf_counter() - t0)
    nbrs = [list(bit_indices(a)) for a in adj]
    deg = [len(nb) for nb in nbrs]
    hi = min(max(deg) + 1, V)
    order = _search_order(adj)
    nodes = 0

    def feasible(l):
        nonlocal nodes
        color = [0] * V
        free = deg[:]  # uncolored neighbours of each vertex
        count = [[0] * (l + 1) for _ in range(V)]  # count[u][c]: neighbours of u colored c
        have = [0] * V  # bit c of have[u]: some neighbour of u is colored c

        def stuck(u):
            # u can no longer see every color below its own
            return (((1 << color[u]) - 2) & ~have[u]).bit_count() > free[u]

        def rec(pos, used_max):
            nonlocal nodes
            nodes += 1
            if pos == V:
                # every vertex passed the forward check with no neighbour left
                # uncolored, so the coloring is Grundy
                return used_max == l
            v = order[pos]
            for c in range(1, min(deg[v] + 1, l) + 1):
                if (have[v] >> c) & 1:
                    continue
                color[v] = c
                if stuck(v):  # and so for every higher color
                    color[v] = 0
                    break
                bit = 1 << c
                for u in nbrs[v]:
                    free[u] -= 1
                    count[u][c] += 1
                    have[u] |= bit
                if (not any(color[u] and stuck(u) for u in nbrs[v])
                        and rec(pos + 1, max(used_max, c))):
                    return True
                for u in nbrs[v]:
                    free[u] += 1
                    count[u][c] -= 1
                    if not count[u][c]:
                        have[u] &= ~bit
                color[v] = 0
            return False

        return rec(0, 0)

    for l in range(hi, 0, -1):
        if feasible(l):
            return OracleResult("grundy", l, nodes, time.perf_counter() - t0)
    return OracleResult("grundy", 1, nodes, time.perf_counter() - t0)
