"""Colorings as certificates: representation, verification, condition (C).

A coloring is its host graph and its color classes (class i holds the
vertices of color i+1); its certificate is the graph's header() plus the
classes.  Verification is exhaustive and reports the first witness of
every violated property, in canonical (colex index) vertex order.  It works
on bitsets: one lookup of every label in the graph's index table gives each
class as a mask of vertex indices, then one walk in color order takes from
the graph's class_unions() the vertices adjacent to each class (on K(n,k)
from the point stars, k ORs and one AND per member), one union live at a
time, and keeps a running mask per check.  No edge is listed, and a
neighbourhood is formed only for the vertex of a proper or Grundy witness.
"""
from __future__ import annotations

import json
from collections import Counter, namedtuple
from contextlib import suppress
from itertools import accumulate, chain, pairwise
from math import comb
from types import SimpleNamespace

from .errors import CertificateError, CoverageError, ForeignVertexError, ParameterDomainError
from .kneser import KneserGraph, MatchingGraph, bit_indices, bitset, build_kneser, kneser_order

ALL_CHECKS = frozenset({"proper", "complete", "grundy", "dominating"})
# bounds the class masks (classes x vertices bits, all that verification holds
# but a few running masks): the declared range of every coloring built or read
BITSET_CAP = 447 * 200_000


class Coloring(namedtuple("Coloring", "graph classes")):
    """graph is the host graph (a kneser.Graph); classes are tuples of vertex labels."""
    __slots__ = ()

    @property
    def color_count(self) -> int:
        return len(self.classes)

    def class_histogram(self) -> dict:
        return Counter(map(len, self.classes))

    def to_json(self) -> str:
        return json.dumps({**self.graph.header(), "classes": self.classes}, sort_keys=True,
                          check_circular=False)


def _int_lists(x, what, depth=2):
    """A JSON list of lists of integers (at depth 3, a list of such lists), as
    tuples; the types of each level are checked in one pass at C speed."""
    items = [x]
    for level in range(depth + 1):
        if not set(map(type, items)) <= ({int} if level == depth else {list}):
            raise ParameterDomainError(f"{what} must be a list of lists of integers")
        if level < depth:
            items = list(chain.from_iterable(items))
    return tuple(map(tuple, x)) if depth == 2 else tuple(tuple(map(tuple, row)) for row in x)


def _field(doc, key):
    if key not in doc:
        raise ParameterDomainError(f"the certificate has no {key!r} field")
    return doc[key]


def check_footprint(classes: int, order: int) -> None:
    """Refuse, before anything is allocated, a coloring whose class bitsets
    (classes x order bits) would exceed BITSET_CAP."""
    if classes * order > BITSET_CAP:
        raise ParameterDomainError(f"{classes} classes on {order} vertices exceed the "
                                   f"declared class-bitset footprint of {BITSET_CAP} bits")


def _covering(classes, count):
    """classes, unless they have too few members to cover the graph's vertices,
    or their footprint exceeds BITSET_CAP.  count(bound) is the vertex count,
    or None if it exceeds bound; the bound is the larger of the two limits."""
    members = sum(map(len, classes))
    bound = max(members, BITSET_CAP)
    order = count(bound)
    if order is None or order > members:
        raise CoverageError(f"{members} class members cannot cover the graph's "
                            f"{order or f'more than {bound}'} vertices")
    check_footprint(len(classes), order)
    return classes


def _json_doc(text: str):
    """The decoded JSON document; one nested too deeply for the decoder's
    recursion, or with an integer of more digits than int() converts, is
    refused as ParameterDomainError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ParameterDomainError("the JSON document is nested too deeply to decode") from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise ParameterDomainError("the JSON document holds an integer too long to decode") from None


def coloring_from_json(text: str) -> Coloring:
    """Decode a certificate and build its graph; a malformed one raises
    ParameterDomainError, and one whose classes cannot cover the graph
    CoverageError, before the graph (or its PointSet) is built; so do more
    than POINT_CAP points and a class-bitset footprint above BITSET_CAP."""
    doc = _json_doc(text)
    if not isinstance(doc, dict) or not isinstance(_field(doc, "classes"), list):
        raise ParameterDomainError("a certificate must be a JSON object with a list of classes")
    for key in ("matching_size", "n", "k"):
        if key in doc and (type(doc[key]) is not int or doc[key] < 1):
            raise ParameterDomainError(f"{key} must be an integer >= 1, got {doc[key]!r}")
    if "matching_size" in doc:
        m = doc["matching_size"]
        classes = _covering(_int_lists(doc["classes"], "classes"), lambda bound: 2 * m)
        return Coloring(MatchingGraph(m), classes)
    classes = _int_lists(doc["classes"], "each class", depth=3)
    if "points" in doc:
        from .geometry import POINT_CAP, PointSet, build_dv  # geometry imports this module
        points = _int_lists(doc["points"], "points")
        if len(points) > POINT_CAP:
            raise ParameterDomainError(f"a D_V certificate is declared for at most {POINT_CAP} "
                                       f"points, got {len(points)}")
        if any(len(p) != 2 for p in points):
            raise ParameterDomainError("each point must be a pair of integer coordinates")
        k = _field(doc, "k")
        classes = _covering(classes, lambda bound: comb(len(points), k))
        return Coloring(build_dv(PointSet(points), k), classes)
    n, k = _field(doc, "n"), _field(doc, "k")
    classes = _covering(classes, lambda bound: kneser_order(n, k, bound))
    return Coloring(build_kneser(n, k), classes)


class VerificationReport(SimpleNamespace):
    """Each check is None until verified; witnesses name the failed checks' first violations."""

    def __init__(self, color_count, class_histogram):
        super().__init__(color_count=color_count, proper=None, complete=None, grundy=None,
                         dominating=None, witnesses={}, class_histogram=class_histogram)

    def as_dict(self):
        return {"color_count": self.color_count, "proper": self.proper,
                "complete": self.complete, "grundy": self.grundy,
                "dominating": self.dominating, "witnesses": dict(self.witnesses),
                "class_histogram": {str(k): v for k, v in sorted(self.class_histogram.items())}}


def _class_masks(g, classes) -> list:
    """Each class's vertex mask, from one g.indices() lookup of every label.  They
    partition the V vertices iff none is empty, there are V members and the masks
    sum to 2^V - 1 (V powers of two do only if they differ); else a scan raises."""
    with suppress(ForeignVertexError):  # the scan below names it, or an earlier fault
        found = g.indices(chain.from_iterable(classes))
        masks = [bitset(found[s:e]) for s, e in pairwise(accumulate(map(len, classes), initial=0))]
        if 0 not in masks and len(found) == g.vertex_count and sum(masks) == (1 << len(found)) - 1:
            return masks
    seen = set()
    for ci, cls in enumerate(classes):
        if not cls:
            raise CoverageError(f"class {ci + 1} is empty")
        for v, i in zip(cls, map(g.index, cls)):
            if i in seen:
                raise CoverageError(f"vertex {v} appears in two classes")
            seen.add(i)
    missing = g.vertices[min(set(range(g.vertex_count)) - seen)]
    raise CoverageError(f"classes do not cover vertices, first missing {missing}")


def verify_coloring(coloring: Coloring, checks=ALL_CHECKS) -> VerificationReport:
    """Exhaustively verify the requested properties of a coloring on its graph.

    One g.indices() lookup of all labels gives each class c as a mask M_c
    (_class_masks).  One walk in color order then takes U_c, the vertices
    adjacent to a member, from the graph's class_unions() (any of the
    kneser.Graph protocol), one union live at a time, and keeps a running
    mask per requested check: proper, bad |= M_c & U_c; grundy, late |= M_c
    & ~below, then below &= U_c (below starts as every vertex); dominating,
    ruling &= U_c | M_c, as a vertex sees every class but its own, class c
    dominates iff M_c & ruling; complete, the classes above c whose leader
    (lowest vertex) lies outside U_c are the only ones that can miss it (on a
    matching, whose U_c is sparse, O(l^2) tests in all), walked from the
    highest leader down, keeping the least that misses c.  On K(n,k) this
    costs O(V*k) big-int operations.  Witnesses are the first violation in
    colex index order: the least vertex in bad with its least same-class
    neighbour, from its one-vertex union (by symmetry it starts the least
    pair); the first class pair the walk finds; the proper witness if
    improper, else the least vertex in late with the least lower color its
    one-vertex union misses; the first class with M_c & ruling empty.
    """
    checks = frozenset(checks)
    unknown = checks - ALL_CHECKS
    if unknown:
        raise ParameterDomainError(f"unknown checks {sorted(unknown)}")
    g = coloring.graph
    masks = _class_masks(g, coloring.classes)
    rep = VerificationReport(coloring.color_count, coloring.class_histogram())

    seek_bad = bool(checks & {"proper", "grundy"})
    grundy = "grundy" in checks
    dominating = "dominating" in checks
    leaders, leader_class = 0, {}  # leaders: non-zero while completeness has candidates
    if "complete" in checks:
        for c, m in enumerate(masks):
            leaders |= (low := m & -m)
            leader_class[low.bit_length() - 1] = c  # a leader's index -> its class
    pair = None
    bad = late = 0
    below = ruling = -1
    for a, (mask, union) in enumerate(zip(masks, g.class_unions(coloring.classes))):
        if seek_bad:
            bad |= mask & union
        if grundy:
            late |= mask ^ (mask & below)  # not & ~below: no negative int
            below &= union
        if dominating:
            ruling &= union | mask
        if leaders:
            leaders ^= mask & -mask
            cand = leaders ^ (leaders & union)
            shift = (cand & -cand).bit_length() - 1 if cand else 0
            cand >>= shift  # the walk's ints then span the candidates only
            while cand:  # from the highest leader down, keeping the least missing class
                i = cand.bit_length() - 1
                cand ^= 1 << i
                b = leader_class[shift + i] + 1
                if (pair is None or b < pair[1]) and not union & masks[b - 1]:
                    pair, leaders = (a + 1, b), 0

    proper_witness = None
    if bad:
        i = next(bit_indices(bad))
        [nbrs] = g.class_unions(((g.vertices[i],),))
        same = next(m for m in masks if m >> i & 1)  # the mask of vertex i's class
        proper_witness = (g.vertices[i], g.vertices[next(bit_indices(nbrs & same))])

    if "proper" in checks:
        rep.proper = proper_witness is None
        if proper_witness:
            rep.witnesses["proper"] = proper_witness

    if "complete" in checks:
        rep.complete = pair is None
        if pair:
            rep.witnesses["complete"] = pair

    if grundy:
        rep.grundy = not (bad or late)
        if proper_witness:
            rep.witnesses["grundy"] = proper_witness
        elif late:
            i = next(bit_indices(late))
            [nbrs] = g.class_unions(((g.vertices[i],),))
            missing = next(a for a, m in enumerate(masks) if not nbrs & m)  # proper: below i's
            rep.witnesses["grundy"] = (g.vertices[i], missing + 1)

    if dominating:
        c = next((c for c, m in enumerate(masks) if not m & ruling), None)
        rep.dominating = c is None
        if c is not None:
            rep.witnesses["dominating"] = c + 1

    return rep


def certify(coloring: Coloring, checks, count=None) -> Coloring:
    """Return coloring if it has count classes (when count is given) and
    passes every check on its graph; otherwise raise CertificateError naming
    the class count or the failed checks, so that no constructor emits a
    coloring it has not verified."""
    host = coloring.graph.name
    if count is not None and coloring.color_count != count:
        raise CertificateError(
            f"{host} coloring built {coloring.color_count} classes, wants {count}")
    rep = verify_coloring(coloring, checks)
    failed = sorted(c for c in checks if not getattr(rep, c))
    if failed:
        raise CertificateError(
            f"{host} coloring failed {', '.join(failed)}: {rep.witnesses}")
    return coloring


class ConditionCReport(namedtuple("ConditionCReport", "sizes_ok p3_ok matching_ok singleton_points"
                                                     " centers exceptional problems")):
    """Accounting behind the alpha(K(n,2)) upper bound.

    Singleton classes must form a matching of K_n, size-2 classes must be
    P_3 subgraphs of K_n, and at most one vertex of K_n may be exceptional
    (in no singleton and not the center of any P_3).
    """
    __slots__ = ()

    @property
    def passes(self) -> bool:
        return (self.sizes_ok and self.p3_ok and self.matching_ok
                and len(self.exceptional) <= 1)

    def as_dict(self):
        return {"sizes_ok": self.sizes_ok, "p3_ok": self.p3_ok,
                "matching_ok": self.matching_ok,
                "singleton_points": list(self.singleton_points),
                "centers": list(self.centers),
                "exceptional_count": len(self.exceptional),
                "exceptional": list(self.exceptional),
                "problems": self.problems, "passes": self.passes}


def check_condition_C(coloring: Coloring) -> ConditionCReport:
    g = coloring.graph
    if not (isinstance(g, KneserGraph) and g.k == 2):
        raise ParameterDomainError("condition (C) applies to colorings of K(n,2)")
    problems = []
    sizes_ok = True
    p3_ok = True
    matching_ok = True
    singleton_pts = set()
    centers = []
    for ci, cls in enumerate(coloring.classes):
        if len(cls) > 3:
            sizes_ok = False
            problems.append(f"class {ci + 1} has size {len(cls)}")
        if len(cls) == 1:
            for p in cls[0]:
                if p in singleton_pts:
                    matching_ok = False
                    problems.append(f"K_n vertex {p} shared by two singleton classes")
                singleton_pts.add(p)
        elif len(cls) == 2:
            shared = set(cls[0]) & set(cls[1])
            if len(shared) != 1:
                p3_ok = False
                problems.append(f"class {ci + 1} {cls} is not a P_3 of K_n")
            else:
                centers.append(shared.pop())
    involved = singleton_pts | set(centers)
    exceptional = tuple(p for p in range(1, g.n + 1) if p not in involved)
    return ConditionCReport(sizes_ok=sizes_ok, p3_ok=p3_ok, matching_ok=matching_ok,
                            singleton_points=tuple(sorted(singleton_pts)),
                            centers=tuple(sorted(centers)),
                            exceptional=exceptional, problems=problems)
