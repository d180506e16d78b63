"""Exact exponential-time ground truth for chi, Gamma, alpha, psi on small graphs.

alpha and psi share one branch-and-bound over class assignments (properness
is a toggle).  It walks target counts downward, so every reported value is
both attained and refuted at value+1, and places vertices in one
max-cardinality order (`_search_order`): each next vertex has the most
neighbours already placed, so the constraints between placed vertices bite
near the root.  Each vertex tries a new class first, then the open classes
by the class pairs they would newly make see each other, most first (ties
to the lower index), so a complete coloring is usually met within a few
hundred nodes; every branch is still tried before a level is refuted.
Admissible prunes only: unseen pairs versus the edges with an endpoint
still unplaced (a suffix sum over the static order), open-class
feasibility, and the singleton-degree argument (a singleton class must see
every other class).  Gamma is the recursion
Gamma(G[S]) = 1 + max Gamma(G[S - I]) over the maximal independent sets I of
G[S], Gamma(empty) = 0: class 1 of a Grundy coloring is a maximal independent
set and the classes above it are a Grundy coloring of the rest, and
conversely.  It is memoised on the vertex mask S (its node count is the number
of masks solved) and stops at min(|S|, Delta(G[S]) + 1).  chi is
DSatur-ordered iterative deepening.
"""
from __future__ import annotations

import time
from collections import namedtuple
from math import comb

from .errors import SizeCapError
from .kneser import bit_indices

CHI_CAP = 24  # vertices; the default cap of exact_chromatic
SEARCH_CAP = 16  # vertices; the default cap of the alpha, psi and Gamma searches


class OracleResult(namedtuple("OracleResult", "param value nodes_explored seconds")):
    __slots__ = ()

    def as_dict(self):
        return {**self._asdict(), "seconds": round(self.seconds, 6)}


def check_cap(vertex_count, cap, what):
    """Raise SizeCapError if a graph of vertex_count vertices (None: more than
    cap, as kneser_order counts up to a bound) exceeds cap."""
    if vertex_count is None or vertex_count > cap:
        raise SizeCapError(f"{what} capped at {cap} vertices, graph has "
                           f"{'more' if vertex_count is None else vertex_count}")


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


def exact_chromatic(g, cap: int = CHI_CAP) -> OracleResult:
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


def _complete_max(g, cap: int, param: str) -> OracleResult:
    """The most classes of a complete coloring of g, proper for param "alpha"."""
    check_cap(g.vertex_count, cap, f"exact_{param}")
    proper = param == "alpha"
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
    # erem[pos]: the edges with an endpoint in order[pos:], the budget left
    # for unseen class pairs once order[:pos] is placed
    erem, placed = [E], 0
    for v in order:
        erem.append(erem[-1] - (adj[v] & placed).bit_count())
        placed |= 1 << v
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
        seen = [0] * l  # seen[c]: bitmask of the classes c already sees

        def rec(pos, used, unseen):
            nonlocal nodes
            nodes += 1
            if unseen == 0 and used == l:
                return True
            if pos == V or used + (V - pos) < l or unseen > erem[pos]:
                return False
            v = order[pos]
            av = adj[v]
            touch = 0  # the open classes v has a neighbour in
            for c in range(used):
                if classes[c] & av:
                    touch |= 1 << c
            # a new class first, then the open classes by newly seen pairs
            ranked = sorted((-(touch & ~seen[c] & ~(1 << c)).bit_count(), c)
                            for c in range(used) if not (proper and (touch >> c) & 1))
            if used < l:
                ranked.insert(0, (0, used))
            for _, c in ranked:
                new = touch & ~seen[c] & ~(1 << c)
                classes[c] |= 1 << v
                seen[c] |= new
                for c2 in bit_indices(new):
                    seen[c2] |= 1 << c
                if rec(pos + 1, max(used, c + 1), unseen - new.bit_count()):
                    return True
                classes[c] ^= 1 << v
                seen[c] ^= new
                for c2 in bit_indices(new):
                    seen[c2] ^= 1 << c
            return False

        return rec(0, 0, l * (l - 1) // 2)

    for l in range(hi, 0, -1):
        if feasible(l):
            return OracleResult(param, l, nodes, time.perf_counter() - t0)
    return OracleResult(param, 0, nodes, time.perf_counter() - t0)  # only the null graph gets here


def exact_achromatic(g, cap: int = SEARCH_CAP) -> OracleResult:
    """Maximum proper complete coloring size."""
    return _complete_max(g, cap, "alpha")


def exact_pseudoachromatic(g, cap: int = SEARCH_CAP) -> OracleResult:
    """Maximum complete coloring size (properness dropped)."""
    return _complete_max(g, cap, "psi")


def exact_grundy(g, cap: int = SEARCH_CAP) -> OracleResult:
    """Maximum l admitting a Grundy l-coloring (every color j sees all i < j)."""
    check_cap(g.vertex_count, cap, "exact_grundy")
    t0 = time.perf_counter()
    adj = g.adjacency_bitsets()
    memo = {0: 0}

    def gamma(S):
        value = memo.get(S)
        if value is None:
            bound = min(S.bit_count(), 1 + max((adj[v] & S).bit_count() for v in bit_indices(S)))
            value = memo[S] = best_over_sets(S, 0, S, 0, 0, bound)
        return value

    def best_over_sets(S, R, P, X, best, bound):
        # raise best to 1 + gamma(S - I) over the maximal independent sets I
        # of G[S] that contain R, draw the rest from P and avoid X (pivoted
        # Bron-Kerbosch on the complement of G[S]); stop once best == bound.
        # Bits are walked lowest first inline: these masks are small.
        if not P:
            return best if X else max(best, 1 + gamma(S & ~R))
        branches, Q = P, P | X
        while Q:  # the pivot that leaves the fewest branches
            w = Q & -Q
            Q ^= w
            w_branches = P & (adj[w.bit_length() - 1] | w)
            if w_branches.bit_count() < branches.bit_count():
                branches = w_branches
        while branches:
            v = branches & -branches
            branches ^= v
            rest = S & ~adj[v.bit_length() - 1] & ~v
            best = best_over_sets(S, R | v, P & rest, X & rest, best, bound)
            if best == bound:
                break
            P &= ~v
            X |= v
        return best

    value = gamma((1 << len(adj)) - 1)
    return OracleResult("grundy", value, len(memo) - 1, time.perf_counter() - t0)
