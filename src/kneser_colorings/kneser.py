"""Kneser graphs: vertices are k-subsets of [n], edges join disjoint subsets.

Vertices are kept in colexicographic order; that order is part of the
public contract (JSON exports and search traces index into it).
MatchingGraph, the m-edge matching, is the third host graph of a coloring.
build_kneser shares a graph only while some caller holds it: the memo keeps
weak references, so a graph, its index and its point stars are freed with
the last coloring that carries them, and a released graph is built again if
it is asked for again.
"""
from __future__ import annotations

import json
from functools import cached_property, reduce
from itertools import combinations
from math import comb
from operator import or_
from weakref import WeakValueDictionary

from .errors import ForeignVertexError, ParameterDomainError


def bit_indices(bits: int):
    """Yield the positions of the set bits of an int >= 0, lowest first, via one bin()
    string: for many set bits.  For a few, walk down: i = bits.bit_length() - 1; bits ^= 1 << i."""
    digits = bin(bits)[:1:-1]  # least significant digit first
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def bitset(indices) -> int:
    """The int with exactly the bits of a list of indices set: a few by
    shifts, more filled as a bytearray up to the largest and converted once,
    so O(len(indices) + max/8)."""
    if len(indices) <= 8:
        bits = 0
        for i in indices:
            bits |= 1 << i
        return bits
    row = bytearray(max(indices, default=-1) // 8 + 1)
    for i in indices:
        row[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(row, "little")


def kneser_order(n: int, k: int) -> int:
    """C(n,k), the vertex count of K(n,k), without building the graph."""
    if k < 1 or n < k:
        raise ParameterDomainError(f"K({n},{k}) needs 1 <= k <= n")
    return comb(n, k)


class Graph:
    """The graph protocol that verification and the oracles use.

    A graph has `vertices` in index order, indices(labels) (one pass over its
    index table, raising ForeignVertexError at the first label that is no
    vertex), index(v) and two adjacency methods, each the other's default, so
    a graph overrides exactly one: adjacency_bitsets(), each vertex's
    neighbour bitset in index order (bit j of entry i is set iff vertices i
    and j are adjacent), and class_unions(classes), which yields the union of
    each class's rows in class order, one at a time: all that verification
    reads.  K(n,k) and the matching override class_unions, D_V(n,k)
    adjacency_bitsets.  edges() walks the rows.  A graph that hosts a
    coloring also has a `name` for messages and header(), its fields in a
    certificate (colorings.coloring_from_json).
    """

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def index(self, v) -> int:
        return self.indices((v,))[0]

    def adjacency_bitsets(self):
        """Per-vertex neighbour bitsets, as a list: the unions of the one-member classes."""
        return list(self.class_unions((v,) for v in self.vertices))

    def class_unions(self, classes):
        """Yield, per class of vertex labels, the bitset of the vertices adjacent
        to a member: the OR of the members' rows of adjacency_bitsets()."""
        rows = self.adjacency_bitsets()
        return (reduce(or_, map(rows.__getitem__, self.indices(cls)), 0) for cls in classes)

    def edges(self):
        """Yield index pairs (i, j), i < j, of adjacent vertices, in index order."""
        for i, nbrs in enumerate(self.adjacency_bitsets()):
            for j in bit_indices(nbrs >> (i + 1)):
                yield i, i + 1 + j


class SubsetGraph(Graph):
    """A graph on the k-subsets of 1..n, in colex order.

    K(n,k) and every D_V(n,k) share this vertex model: the same vertex
    tuple, index and point stars, and differ only in the adjacency method
    of Graph that each overrides.
    """

    def __init__(self, n: int, k: int):
        kneser_order(n, k)
        self.n = n
        self.k = k
        # the subsets of n..1 come out as reversed k-subsets in decreasing colex order
        self.vertices = tuple(c[::-1] for c in combinations(range(n, 0, -1), k))[::-1]
        self._index = {v: i for i, v in enumerate(self.vertices)}

    def indices(self, labels) -> list:
        labels = list(labels)  # tuples or lists; the table is keyed by tuples
        found = list(map(self._index.get, map(tuple, labels)))
        if None in found:
            v = labels[found.index(None)]
            raise ForeignVertexError(f"{v} is not a vertex of K({self.n},{self.k})")
        return found

    @cached_property
    def stars(self) -> tuple:
        """stars[x] is the bitset of the vertices containing point x (stars[0] = 0).

        Built from the colex rank, rank(v) = sum_i C(v_i - 1, i), with no pass
        over the vertices.  A k-set through x is A + {x} + B with A a j-subset
        of [x-1] and B an m-subset of (x, n], m = k-1-j.  The ranks of A fill
        0..C(x-1,j)-1 and x adds C(x-1,j+1), so
            star(x) = sum_j (2^C(x-1,j) - 1) * (R[j+1,m](x) << C(x-1,j+1)),
        where R[p,m](x) sums 2^(sum_t C(b_t - 1, p+t)) over the m-subsets B of
        (x, n], R[p,0] = 1.  No two terms share a vertex, so nothing carries.
        Walking x from n down, R gains the B whose least point is x:
        R[p,m] += R[p+1,m-1] << C(x-1,p+1).  Only p + m = k is read, so tails[m]
        holds R[k-m,m].  O(n*k) shifts and subtractions of V-bit ints.
        """
        n, k = self.n, self.k
        tails = [1] + [0] * (k - 1)
        stars = [0] * (n + 1)
        for x in range(n, 0, -1):
            star = 0
            for j in range(k):
                t = tails[k - 1 - j] << comb(x - 1, j + 1)
                star += (t << comb(x - 1, j)) - t
            stars[x] = star
            for m in range(k - 1, 0, -1):
                tails[m] += tails[m - 1] << comb(x - 1, k - m + 1)
        return tuple(stars)


class KneserGraph(SubsetGraph):
    """Immutable K(n,k). Adjacency is subset disjointness."""

    @property
    def name(self) -> str:
        return f"K({self.n},{self.k})"

    def header(self) -> dict:
        return {"n": self.n, "k": self.k}

    @property
    def regular_degree(self) -> int:
        return comb(self.n - self.k, self.k)

    def class_unions(self, classes):
        """Yield each class's union.  A vertex sees no member of a class iff it
        meets them all, so the union is ALL less the AND over members v of
        stars[x1] | ... | stars[xk]: k big-int ORs and one AND per member."""
        stars, full = self.stars, (1 << self.vertex_count) - 1
        for cls in classes:
            met = full
            for v in cls:
                star = 0
                for x in v:
                    star |= stars[x]
                met &= star
            yield full ^ met

    def edge_count(self) -> int:
        return self.vertex_count * self.regular_degree // 2

    def dot_lines(self):
        """Yield the DOT document one newline-terminated line at a time."""
        yield f'graph "K({self.n},{self.k})" {{\n'
        for i, v in enumerate(self.vertices):
            label = "{" + ",".join(map(str, v)) + "}"
            yield f'  v{i} [label="{label}"];\n'
        for i, j in self.edges():
            yield f"  v{i} -- v{j};\n"
        yield "}\n"

    def vertices_json(self) -> str:
        return json.dumps({"n": self.n, "k": self.k, "vertices": self.vertices},
                          check_circular=False)


_graphs = WeakValueDictionary()  # (n, k) -> the K(n,k) some caller still holds


def build_kneser(n: int, k: int) -> KneserGraph:
    """K(n,k): the graph already built while a caller still holds it, else a new one.

    The degenerate boundary cases K(3,2) and K(2,2) (edgeless graphs) are
    meaningful here, so the only requirement is 1 <= k <= n.
    """
    g = _graphs.get((n, k))
    if g is None:
        g = _graphs[n, k] = KneserGraph(n, k)
    return g


class MatchingGraph(Graph):
    """Disjoint union of m edges; vertex t's partner is t +- m (1-based)."""

    def __init__(self, m: int):
        self.m = m
        self.vertices = tuple(range(1, 2 * m + 1))
        self._index = (None, 0, *self.vertices[:-1])  # label t -> index t - 1, ints shared

    @property
    def name(self) -> str:
        return f"matching of {self.m} edges"

    def header(self) -> dict:
        return {"matching_size": self.m}

    def indices(self, labels) -> list:
        labels = list(labels)
        if labels and not 1 <= min(labels) <= max(labels) <= 2 * self.m:
            v = next(v for v in labels if not 1 <= v <= 2 * self.m)
            raise ForeignVertexError(f"vertex {v} outside matching of size {self.m}")
        return list(map(self._index.__getitem__, labels))

    def class_unions(self, classes):
        """Yield each class's partners as a bitset: vertex t's partner has index t - 1 -+ m."""
        m = self.m
        return (bitset([v + m - 1 if v <= m else v - m - 1 for v in cls]) for cls in classes)


def lovasz_chromatic(n: int, k: int) -> int:
    """chi(K(n,k)) = n - 2(k-1); valid through the edgeless boundary 2k = n+1."""
    if k < 1 or 2 * k > n + 1:
        raise ParameterDomainError(f"chromatic formula needs 1 <= k and 2k <= n+1, got ({n},{k})")
    return n - 2 * (k - 1)
